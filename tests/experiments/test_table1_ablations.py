"""Table 1 reproduction and ablations A–E."""

import pytest

from repro.experiments.harness import run
from repro.experiments.paper_ablations import (
    ABLATION_A,
    ABLATION_B,
    ABLATION_C,
    ABLATION_D,
    ABLATION_E,
    ablation_c_point,
)
from repro.experiments.table1 import TABLE1


class TestTable1:
    def test_all_prose_claims_hold(self):
        result = run(TABLE1)
        assert TABLE1.holds(result), result.render()

    def test_render_includes_checks(self):
        text = run(TABLE1).render()
        assert "[ok ]" in text
        assert "Table 1" in text


class TestAblationOverhead:
    @pytest.fixture(scope="class")
    def result(self):
        return run(ABLATION_A, trials=4)

    def test_each_component_contributes(self, result):
        full = result.median("full detour")
        assert result.median("free extension") < full
        assert result.median("free proxy") < full

    def test_proxy_dominates_extension(self, result):
        """With the default calibration the proxy data path is the larger
        cost — which is why strict-mode blocks shorten PLT in Figure 3."""
        assert result.median("free proxy") < result.median("free extension")

    def test_tighter_integration_removes_overhead(self, result):
        """The paper's §5.2 prediction, quantified."""
        baseline = result.median("no detour (BGP/IP)")
        assert result.median("free both") < baseline * 1.6


class TestAblationPolicy:
    def test_policy_selection_is_optimal(self):
        result = run(ABLATION_B, base_seed=42, pairs=25).cell("co2")
        assert result.pairs > 10
        assert result.policy_vs_optimal.maximum == pytest.approx(1.0)

    def test_arbitrary_selection_is_worse(self):
        result = run(ABLATION_B, base_seed=42, pairs=25).cell("co2")
        assert result.arbitrary_vs_optimal.mean > 1.1

    def test_latency_metric_variant(self):
        result = run(ABLATION_B, cells=[("latency",)], base_seed=7,
                     pairs=15).cell("latency")
        assert result.policy_vs_optimal.maximum == pytest.approx(1.0)

    def test_geofence_choices_always_compliant_when_possible(self):
        result = run(ABLATION_B, base_seed=42, pairs=25).cell("co2")
        assert result.geofence_available > 0
        assert result.geofence_compliant_choices == result.geofence_available

    def test_path_diversity_matches_paper_claim(self):
        result = run(ABLATION_B, base_seed=42, pairs=25).cell("co2")
        assert result.mean_paths_per_pair >= 5


class TestAblationModes:
    def test_opportunistic_always_loads_everything(self):
        for fraction in (0.0, 0.5, 1.0):
            point = ablation_c_point(fraction, "opportunistic")
            assert point.blocked == 0
            assert point.loaded == 17  # main + 16 resources

    def test_strict_blocks_scale_with_unavailability(self):
        low = ablation_c_point(0.25, "strict")
        high = ablation_c_point(0.75, "strict")
        assert low.blocked > high.blocked

    def test_strict_at_zero_fails_page(self):
        point = ablation_c_point(0.0, "strict")
        assert point.loaded == 0

    def test_full_availability_modes_agree(self):
        opportunistic = ablation_c_point(1.0, "opportunistic")
        strict = ablation_c_point(1.0, "strict")
        assert opportunistic.loaded == strict.loaded
        assert strict.blocked == 0
        assert strict.indicator == "all-scion"

    def test_scion_share_monotone_in_availability(self):
        points = run(ABLATION_C, cells=[
            (fraction, mode) for fraction in (0.0, 0.5, 1.0)
            for mode in ("opportunistic", "strict")]).cells.values()
        opportunistic = [p for p in points if p.mode == "opportunistic"]
        shares = [p.over_scion for p in opportunistic]
        assert shares == sorted(shares)


class TestAblationMultipath:
    def test_default_summary_row_is_the_recorded_one(self):
        assert ABLATION_D.measured(run(ABLATION_D)) == (
            "4 MB transfer: 403 ms single path vs 230 ms over two disjoint "
            "paths (1.75x)")

    def test_the_transfer_size_reaches_the_text(self):
        result = run(ABLATION_D, size=1_000_000)
        assert result.description.startswith("1 MB, dual-homed testbed")
        assert ABLATION_D.measured(result).startswith("1 MB transfer: ")
        assert "4 MB" not in result.render()


class TestAblationDiversity:
    @pytest.fixture(scope="class")
    def by_budget(self):
        return {budget: cell
                for (budget,), cell in run(ABLATION_E).cells.items()}

    def test_diversity_grows_with_the_budget(self, by_budget):
        counts = [by_budget[b].mean_paths_per_pair for b in sorted(by_budget)]
        assert counts == sorted(counts)
        assert by_budget[8].mean_paths_per_pair > \
            2 * by_budget[1].mean_paths_per_pair

    def test_smaller_stores_never_find_a_faster_path(self, by_budget):
        """The largest budget is the reference the penalty is taken
        against."""
        assert by_budget[8].mean_latency_penalty == 1.0
        assert by_budget[1].mean_latency_penalty >= 1.0

    def test_a_run_without_budgets_1_and_8_is_judged(self):
        """The verdict compares the smallest and the largest budget that
        ran: from 2 to 4 the paths grow but do not double."""
        result = run(ABLATION_E, cells=[(2,), (4,)], budgets=(2, 4))
        assert result.cell(4).mean_latency_penalty == 1.0
        assert result.cell(2).mean_paths_per_pair \
            < result.cell(4).mean_paths_per_pair
        assert not ABLATION_E.holds(result)
