"""One entry point for every experiment.

Usage::

    python -m repro.experiments                 # list the registry
    python -m repro.experiments <name> [--selftest] [--trials N]
                                       [--workers N] [--json PATH]

plus whatever trial parameters the entry declares (``--users``,
``--sites``, ``--jittered``). A run prints the entry's report block and
its verdict; exit status 1 when the expected shape does not hold (or
the selftest fails). Omitted options mean the paper-scale declaration.

This is the only module that imports every battery module — the
registry lives here, not in ``harness`` or the package ``__init__``, so
a process that builds worlds (a pool worker, a benchmark child) never
pays for experiments it does not run.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.components import SWEEP
from repro.experiments.fastpath_ab import FASTPATH_AB
from repro.experiments.fault_battery import CHAOS
from repro.experiments.harness import (Battery, run, run_checklist,
                                       write_json)
from repro.experiments.local_setup import FIGURE3
from repro.experiments.overload import OVERLOAD
from repro.experiments.paper_ablations import (ABLATION_A, ABLATION_B,
                                               ABLATION_C, ABLATION_D,
                                               ABLATION_E)
from repro.experiments.population import POPULATION
from repro.experiments.remote_setup import FIGURE5, FIGURE6
from repro.experiments.resilience_battery import RESILIENCE
from repro.experiments.table1 import TABLE1

#: The experiments of the generated report, in presentation order, and
#: the two harness tools that judge the simulator rather than the paper.
EXPERIMENTS: tuple[Battery, ...] = (
    TABLE1, FIGURE3, FIGURE5, FIGURE6, ABLATION_A, ABLATION_B, ABLATION_C,
    ABLATION_D, ABLATION_E, CHAOS, RESILIENCE, POPULATION, OVERLOAD)
REGISTRY: dict[str, Battery] = {
    entry.name: entry for entry in EXPERIMENTS + (SWEEP, FASTPATH_AB)}


def verdict(entry: Battery, result) -> str:
    """``yes`` / ``NO``: the "Holds" cell of the entry's summary row."""
    return "yes" if entry.holds(result) else "NO"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        for entry in REGISTRY.values():
            print(f"{entry.name:<12} {entry.title}")
        return 0
    entry = REGISTRY.get(argv[0])
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.experiments {argv[0]}",
        description=entry.title if entry else None)
    if entry is None:
        parser.error(f"unknown experiment {argv[0]!r} (choose from "
                     f"{', '.join(REGISTRY)})")
    if entry.selftest is not None:
        parser.add_argument("--selftest", action="store_true",
                            help="the entry's gate, at the size tier 1 "
                                 "runs it")
    parser.add_argument("--trials", type=int, default=None,
                        help=f"trials per cell (default {entry.trials})")
    parser.add_argument("--workers", type=int, default=None,
                        help="trial-level parallelism of pooled batteries "
                             "(default: all cores, or $REPRO_WORKERS)")
    parser.add_argument("--json", default=None,
                        help="also write the result as JSON to this path")
    for name, kind, text in entry.options:
        if kind is bool:
            parser.add_argument(f"--{name}", action="store_true", help=text)
        else:
            parser.add_argument(f"--{name}", type=kind, default=None,
                                help=text)
    args = parser.parse_args(argv[1:])

    given = {name: value for name, value in vars(args).items()
             if name not in ("selftest", "json")
             and value is not None and value is not False}
    if getattr(args, "selftest", False):
        if callable(entry.selftest):
            return 0 if run_checklist(entry) else 1
        given = {**entry.selftest, **given}
    result = run(entry, **given)
    print(result.render())
    if entry.measured is not None:
        print(f"{entry.label}: {entry.measured(result)}")
    holds = verdict(entry, result)
    print(f"holds: {holds}")
    if args.json:
        print(f"wrote {write_json(args.json, result)}")
    return 0 if holds == "yes" else 1


if __name__ == "__main__":
    sys.exit(main())
