"""Experiment harness reproducing the paper's evaluation (§5.2).

Scenario builders construct a fresh simulated world per trial; the
harness runs seeded trial batteries and summarizes PLT distributions the
way the paper's box plots do. Every experiment is declared once as a
:class:`~repro.experiments.harness.Battery` in the module that owns its
trial; ``python -m repro.experiments`` lists and runs them.

* :mod:`repro.experiments.harness` — trials, box-plot statistics, the
  ``Battery`` record with ``submit`` / ``run``, world records,
* :mod:`repro.experiments.__main__` — the registry and the one CLI,
* :mod:`repro.experiments.run_all` — the EXPERIMENTS.md generator,
* :mod:`repro.experiments.local_setup` — Figures 2/3 (local testbed),
* :mod:`repro.experiments.remote_setup` — Figures 4/5/6 (distributed),
* :mod:`repro.experiments.table1` — the Table 1 reproduction,
* :mod:`repro.experiments.ablations` — the paper ablations A–E
  (overhead decomposition, policy quality, availability modes,
  multipath, beacon-store diversity),
* :mod:`repro.experiments.fault_battery` — the chaos battery,
* :mod:`repro.experiments.resilience_battery` — recovery under churn,
* :mod:`repro.experiments.population` — a city browses,
* :mod:`repro.experiments.overload` — the flash crowd,
* :mod:`repro.experiments.ablations2` — the component-ablation harness
  (leave-one-out importance, correctness contracts),
* :mod:`repro.experiments.fastpath_ab` — fast path vs. packet-level
  oracle.
"""

from repro.experiments.harness import BoxStats, ExperimentResult, summarize

__all__ = ["BoxStats", "ExperimentResult", "summarize"]
