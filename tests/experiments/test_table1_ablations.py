"""Table 1 reproduction and ablations A, B, C and E."""

import pytest

from repro.experiments.harness import run
from repro.experiments.paper_ablations import (
    ABLATION_A,
    ablation_c_point,
    run_ablation_diversity,
    run_ablation_modes,
    run_ablation_policy,
)
from repro.experiments.table1 import run_table1


class TestTable1:
    def test_all_prose_claims_hold(self):
        result = run_table1()
        assert result.all_hold, result.render()

    def test_render_includes_checks(self):
        text = run_table1().render()
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
        result = run_ablation_policy(metric="co2", seed=42, pairs=25)
        assert result.pairs > 10
        assert result.policy_vs_optimal.maximum == pytest.approx(1.0)

    def test_arbitrary_selection_is_worse(self):
        result = run_ablation_policy(metric="co2", seed=42, pairs=25)
        assert result.arbitrary_vs_optimal.mean > 1.1

    def test_latency_metric_variant(self):
        result = run_ablation_policy(metric="latency", seed=7, pairs=15)
        assert result.policy_vs_optimal.maximum == pytest.approx(1.0)

    def test_geofence_choices_always_compliant_when_possible(self):
        result = run_ablation_policy(metric="co2", seed=42, pairs=25)
        assert result.geofence_available > 0
        assert result.geofence_compliant_choices == result.geofence_available

    def test_path_diversity_matches_paper_claim(self):
        result = run_ablation_policy(seed=42, pairs=25)
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
        points = run_ablation_modes(fractions=(0.0, 0.5, 1.0))
        opportunistic = [p for p in points if p.mode == "opportunistic"]
        shares = [p.over_scion for p in opportunistic]
        assert shares == sorted(shares)


class TestAblationDiversity:
    @pytest.fixture(scope="class")
    def by_budget(self):
        return {point.beacons_per_target: point
                for point in run_ablation_diversity()}

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
