"""The report generator: "Holds" verdicts, the rendered report, where
its side artifacts land, and its hand-copied notes.

Each entry's ``holds`` predicate decides one cell of EXPERIMENTS.md's
summary table; a synthetic passing and a synthetic failing result show
the cell is computed, not printed. The static notes are checked against
the committed report so an edit to one lands in both places.
"""

import pathlib
import re

import pytest

from repro.experiments import run_all
from repro.experiments.__main__ import EXPERIMENTS
from repro.experiments.ablations import (
    ABLATION_A,
    ABLATION_B,
    ABLATION_C,
    ABLATION_D,
    ABLATION_E,
    DiversityPoint,
    ModeSweepPoint,
    PolicyQualityResult,
)
from repro.experiments.harness import ExperimentResult, summarize
from repro.experiments.local_setup import FIGURE3
from repro.experiments.remote_setup import FIGURE5, FIGURE6
from repro.obs.export import load_artifact, render_report

ROOT = pathlib.Path(__file__).resolve().parents[2]


def medians(by_condition: dict[str, float]) -> ExperimentResult:
    """A synthetic PLT result with the given median per condition."""
    result = ExperimentResult("synthetic", "")
    for condition, median in by_condition.items():
        result.add(condition, summarize([median]))
    return result


def figure3(scion_only: float, strict: float) -> ExperimentResult:
    return medians({"SCION-only": scion_only, "strict-SCION": strict,
                    "BGP/IP-only": 6.0})


def remote(scion: float, ip: float) -> ExperimentResult:
    return medians({"single origin / SCION": scion,
                    "single origin / IPv4-6": ip})


def overhead(free_both: float, baseline: float) -> ExperimentResult:
    return medians({"free both": free_both, "no detour (BGP/IP)": baseline})


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
        assert ABLATION_A.holds(overhead(20.0, 15.0))
        assert not ABLATION_A.holds(overhead(100.0, 15.0))

    def test_b_policy_is_optimal_and_arbitrary_is_worse(self):
        assert ABLATION_B.holds(policy(1.0, 1.3))
        assert not ABLATION_B.holds(policy(1.2, 1.3))
        assert not ABLATION_B.holds(policy(1.0, 1.05))

    def test_c_opportunistic_never_blocks_and_strict_trades(self):
        assert ABLATION_C.holds(modes())
        assert not ABLATION_C.holds(modes(opportunistic_blocked=1))
        assert not ABLATION_C.holds(modes(strict_loaded_at_0=1))
        assert not ABLATION_C.holds(modes(strict_blocked_at_1=1))

    def test_e_diversity_grows_with_the_budget(self):
        assert ABLATION_E.holds(diversity(2.0, 3.0, 4.0, 5.0))
        assert not ABLATION_E.holds(diversity(2.0, 3.0, 2.5, 5.0))
        assert not ABLATION_E.holds(diversity(2.0, 3.0, 3.5, 4.0))


class TestFigureHolds:
    def test_figure3_overhead_near_100ms_and_strict_shorter(self):
        assert FIGURE3.holds(figure3(scion_only=104.0, strict=40.0))
        assert not FIGURE3.holds(figure3(scion_only=30.0, strict=20.0))
        assert not FIGURE3.holds(figure3(scion_only=300.0, strict=40.0))
        assert not FIGURE3.holds(figure3(scion_only=104.0, strict=110.0))

    def test_figure5_scion_is_faster_to_the_far_origin(self):
        assert FIGURE5.holds(remote(scion=775.0, ip=1143.0))
        assert not FIGURE5.holds(remote(scion=1143.0, ip=775.0))

    def test_figure6_scion_pays_an_overhead_locally(self):
        assert FIGURE6.holds(remote(scion=150.0, ip=90.0))
        assert not FIGURE6.holds(remote(scion=90.0, ip=150.0))

    def test_d_two_paths_beat_one(self):
        assert ABLATION_D.holds((403.0, 230.0))
        assert not ABLATION_D.holds((403.0, 403.0))


class TestReport:
    """The whole report path at two trials per cell: every default
    entry, the resilience battery and a six-user city, with traced
    artifacts, written to one directory from inside another."""

    REPORTED = [entry for entry in EXPERIMENTS if not entry.opt_in
                or entry.name in ("resilience", "population")]

    @pytest.fixture(scope="class")
    def directories(self, tmp_path_factory):
        target = tmp_path_factory.mktemp("report")
        working = tmp_path_factory.mktemp("cwd")
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(working)
            patch.setenv("REPRO_POPULATION_USERS", "6")
            run_all.main(str(target / "E.md"), workers=1, obs=True, trials=2,
                         opt_in={"resilience", "population"})
        return target, working

    def test_one_row_and_one_block_per_entry_in_registry_order(
            self, directories):
        text = (directories[0] / "E.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| ([^|]+) \|.*\| (?:yes|NO) \|$", text,
                          flags=re.MULTILINE)
        assert rows == [entry.label for entry in self.REPORTED]
        blocks = re.findall(r"^## (.+)$", text, flags=re.MULTILINE)
        assert [title for title in blocks if "how to read" not in title] \
            == [entry.title for entry in self.REPORTED] \
            + ["Fast-path A/B — hybrid fidelity vs. packet-level oracle"]

    def test_side_artifacts_land_beside_the_report(self, directories):
        """A verification run to ``/tmp`` must not dirty the directory
        it was started from (the repository)."""
        target, working = directories
        assert list(working.iterdir()) == []
        results = target / "results"
        written = sorted(str(path.relative_to(results))
                         for path in results.rglob("*.json"))
        assert written == ["obs/chaos.json", "obs/figure3.json",
                           "obs/figure5.json", "obs/figure6.json",
                           "population.json"]
        for path in (results / "obs").iterdir():
            assert "== waterfall:" in render_report(load_artifact(path))


@pytest.mark.parametrize("name", ["HEADER", "FASTPATH_NOTE",
                                  "POPULATION_NOTE", "OVERLOAD_NOTE",
                                  "ABLATION_NOTE"])
def test_committed_report_carries_the_note_verbatim(name):
    report = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert getattr(run_all, name) in report
