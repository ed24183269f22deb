"""The report generator's "Holds" verdicts and its hand-copied notes.

Each ``ablation_*_holds`` predicate decides one cell of EXPERIMENTS.md's
summary table; a synthetic passing and a synthetic failing result show
the cell is computed, not printed. The static notes are checked against
the committed report so an edit to one lands in both places.
"""

import pathlib

import pytest

from repro.experiments import run_all
from repro.experiments.ablations import (
    DiversityPoint,
    ModeSweepPoint,
    PolicyQualityResult,
)
from repro.experiments.harness import ExperimentResult, summarize

ROOT = pathlib.Path(__file__).resolve().parents[2]


def overhead(free_both: float, baseline: float) -> ExperimentResult:
    result = ExperimentResult("Ablation A", "")
    result.add("free both", summarize([free_both]))
    result.add("no detour (BGP/IP)", summarize([baseline]))
    return result


def policy(worst_policy_ratio: float,
           arbitrary_ratio: float) -> PolicyQualityResult:
    return PolicyQualityResult(
        "Ablation B",
        policy_vs_optimal=summarize([1.0, worst_policy_ratio]),
        arbitrary_vs_optimal=summarize([arbitrary_ratio]))


def modes(opportunistic_blocked: int = 0, strict_loaded_at_0: int = 0,
          strict_blocked_at_1: int = 0) -> list[ModeSweepPoint]:
    def point(fraction, mode, loaded, blocked):
        return ModeSweepPoint(fraction, mode, loaded, blocked,
                              over_scion=0, indicator="")

    return [point(0.0, "opportunistic", 17, 0),
            point(0.5, "opportunistic", 17, opportunistic_blocked),
            point(1.0, "opportunistic", 17, 0),
            point(0.0, "strict", strict_loaded_at_0, 17),
            point(0.5, "strict", 9, 8),
            point(1.0, "strict", 17, strict_blocked_at_1)]


def diversity(*paths_per_pair: float) -> list[DiversityPoint]:
    return [DiversityPoint(budget, paths, 1.0)
            for budget, paths in zip((1, 2, 4, 8), paths_per_pair)]


class TestAblationHolds:
    def test_a_free_both_is_about_the_baseline(self):
        assert run_all.ablation_a_holds(overhead(20.0, 15.0))
        assert not run_all.ablation_a_holds(overhead(100.0, 15.0))

    def test_b_policy_is_optimal_and_arbitrary_is_worse(self):
        assert run_all.ablation_b_holds(policy(1.0, 1.3))
        assert not run_all.ablation_b_holds(policy(1.2, 1.3))
        assert not run_all.ablation_b_holds(policy(1.0, 1.05))

    def test_c_opportunistic_never_blocks_and_strict_trades(self):
        assert run_all.ablation_c_holds(modes())
        assert not run_all.ablation_c_holds(modes(opportunistic_blocked=1))
        assert not run_all.ablation_c_holds(modes(strict_loaded_at_0=1))
        assert not run_all.ablation_c_holds(modes(strict_blocked_at_1=1))

    def test_e_diversity_grows_with_the_budget(self):
        assert run_all.ablation_e_holds(diversity(2.0, 3.0, 4.0, 5.0))
        assert not run_all.ablation_e_holds(diversity(2.0, 3.0, 2.5, 5.0))
        assert not run_all.ablation_e_holds(diversity(2.0, 3.0, 3.5, 4.0))


@pytest.mark.parametrize("name", ["HEADER", "FASTPATH_NOTE",
                                  "POPULATION_NOTE", "OVERLOAD_NOTE",
                                  "ABLATION_NOTE"])
def test_committed_report_carries_the_note_verbatim(name):
    report = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert getattr(run_all, name) in report
