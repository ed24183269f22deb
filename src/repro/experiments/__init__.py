"""Experiment harness reproducing the paper's evaluation (§5.2).

Every trial runs in a fresh world, a
:class:`~repro.experiments.world.WorldSpec` built from its seed; the
harness runs seeded trial batteries and summarizes PLT distributions the
way the paper's box plots do. Every experiment is declared once as a
:class:`~repro.experiments.harness.Battery` in the module that owns its
trial; ``python -m repro.experiments`` lists and runs them. Every pooled
battery — the figures, Ablation A, chaos, resilience, population and
overload — returns the one result shape,
:class:`~repro.experiments.harness.ExperimentResult`: it declares its
per-cell figures as :class:`~repro.experiments.harness.Column` records
(row field, reducer, display format) and the harness derives, renders
and serialises them.

* :mod:`repro.experiments.harness` — trials, box-plot statistics, the
  ``Battery`` record with ``submit`` / ``run``, the result shape and its
  columns,
* :mod:`repro.experiments.world` — ``WorldSpec``, ``build`` and the one
  ``World`` record,
* :mod:`repro.experiments.__main__` — the registry and the one CLI,
* :mod:`repro.experiments.run_all` — the EXPERIMENTS.md generator,
* :mod:`repro.experiments.local_setup` — Figures 2/3 (local testbed),
* :mod:`repro.experiments.remote_setup` — Figures 4/5/6 (distributed),
* :mod:`repro.experiments.table1` — the Table 1 reproduction,
* :mod:`repro.experiments.paper_ablations` — the paper ablations A–E
  (overhead decomposition, policy quality, availability modes,
  multipath, beacon-store diversity),
* :mod:`repro.experiments.fault_battery` — the chaos battery,
* :mod:`repro.experiments.resilience_battery` — recovery under churn,
* :mod:`repro.experiments.population` — a city browses,
* :mod:`repro.experiments.overload` — the flash crowd,
* :mod:`repro.experiments.components` — the component-ablation harness
  (leave-one-out importance, correctness contracts),
* :mod:`repro.experiments.fastpath_ab` — fast path vs. packet-level
  oracle.
"""

from repro.experiments.harness import BoxStats, Column, ExperimentResult

__all__ = ["BoxStats", "Column", "ExperimentResult"]
