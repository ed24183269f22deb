"""The chaos battery: scenarios, recovery accounting, the §4.2 trade.

Fast checks run in tier 1; the full battery (every scenario × mode at
real trial counts) is marked ``chaos`` and excluded from the default
run — invoke it with ``pytest -m chaos``.
"""

import itertools

import pytest

from repro.core.extension.ui import IndicatorState
from repro.errors import ReproError
from repro.experiments.ablations import ablation_c_point
from repro.experiments.fault_battery import (
    CHAOS,
    FALLBACK_SCENARIOS,
    MODES,
    SCENARIOS,
    build_fault_world,
    fault_trial,
    scenario_schedule,
)
from repro.experiments.harness import run
from repro.simnet.faults import FaultKind
from repro.topology.defaults import remote_testbed


class TestScenarioSchedules:
    def test_unknown_scenario_rejected(self):
        _topology, ases = remote_testbed()
        with pytest.raises(ReproError):
            scenario_schedule("meteor-strike", ases)

    def test_empty_scenarios_arm_nothing(self):
        _topology, ases = remote_testbed()
        for scenario in ("baseline", "quic-outage", "segment-expiry"):
            assert len(scenario_schedule(scenario, ases)) == 0

    def test_link_flap_targets_the_detour_core_link(self):
        _topology, ases = remote_testbed()
        schedule = scenario_schedule("link-flap", ases)
        assert len(schedule) == 1
        spec = schedule.specs[0]
        assert spec.kind is FaultKind.LINK_DOWN
        assert str(ases.third_core) in spec.target

    def test_infra_outage_is_a_scion_outage_at_t0(self):
        _topology, ases = remote_testbed()
        spec = scenario_schedule("infra-outage", ases).specs[0]
        assert spec.kind is FaultKind.SCION_OUTAGE
        assert spec.at_ms == 0.0


class TestFaultWorld:
    def test_strict_flag_enables_strict_mode(self):
        world = build_fault_world(seed=1, n_resources=2, strict=True)
        assert world.browser.extension.settings.strict_mode_global
        assert not build_fault_world(seed=1, n_resources=2) \
            .browser.extension.settings.strict_mode_global

    def test_chaos_worlds_use_an_impatient_deadline(self):
        world = build_fault_world(seed=1, n_resources=2)
        assert world.browser.proxy.request_timeout_ms == 15_000.0


class TestFaultTrial:
    def test_trial_is_a_pure_function_of_its_arguments(self):
        a = fault_trial("link-flap", "opportunistic", seed=500,
                        n_resources=3)
        b = fault_trial("link-flap", "opportunistic", seed=500,
                        n_resources=3)
        assert a == b

    def test_baseline_loads_everything_without_recovery(self):
        plt_ms, ok, failover, fallback, failed = fault_trial(
            "baseline", "opportunistic", seed=500, n_resources=3)
        assert (ok, failover, fallback, failed) == (4.0, 0.0, 0.0, 0.0)
        assert plt_ms > 0

    def test_link_flap_fails_over_without_ip_fallback(self):
        for mode in MODES:
            _plt, ok, failover, fallback, failed = fault_trial(
                "link-flap", mode, seed=500, n_resources=3)
            assert ok == 4.0 and failed == 0.0, mode
            assert failover >= 1.0, mode
            assert fallback == 0.0, mode

    def test_quic_outage_splits_the_modes(self):
        _plt, ok, _fo, fallback, failed = fault_trial(
            "quic-outage", "opportunistic", seed=500, n_resources=3)
        assert (ok, fallback, failed) == (4.0, 4.0, 0.0)
        _plt, ok, _fo, fallback, failed = fault_trial(
            "quic-outage", "strict", seed=500, n_resources=3)
        assert (ok, fallback, failed) == (0.0, 0.0, 4.0)


class TestSmallBattery:
    def test_cells_aggregate_trials(self):
        battery = run(CHAOS, trials=2, n_resources=2,
                      cells=[("baseline", "opportunistic")], workers=1)
        cell = battery.cell("baseline", "opportunistic")
        assert cell.total == 2 * 3
        assert cell.ok == cell.total
        assert cell.recovered_fraction == 0.0
        assert cell.plt.n == 2

    def test_render_names_every_cell(self):
        battery = run(CHAOS, trials=2, n_resources=2, workers=1,
                      cells=list(itertools.product(
                          ("baseline", "quic-outage"), MODES)))
        text = battery.render()
        for scenario in ("baseline", "quic-outage"):
            for mode in MODES:
                assert f"{scenario} / {mode}" in text


class TestAvailabilityIndicator:
    """§4.2's UI ladder under partial SCION availability: the icon walks
    all → some → none as availability shrinks, and strict mode never
    silently falls back — what it loads came over SCION, the rest is
    visibly blocked."""

    @pytest.mark.parametrize("fraction,expected", [
        (1.0, "all-scion"),
        (0.5, "some-scion"),
        (0.0, "no-scion"),
    ])
    def test_opportunistic_indicator_ladder(self, fraction, expected):
        point = ablation_c_point(fraction, "opportunistic", n_origins=4)
        assert point.indicator == expected
        # Opportunistic never loses a resource to unavailability.
        assert point.blocked == 0

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.75])
    def test_strict_blocks_instead_of_falling_back(self, fraction):
        point = ablation_c_point(fraction, "strict", n_origins=4)
        assert point.blocked > 0
        assert point.indicator == "blocked"
        # Nothing loaded over legacy IP: loaded == over-SCION exactly.
        assert point.loaded == point.over_scion

    def test_strict_full_availability_is_all_scion(self):
        point = ablation_c_point(1.0, "strict", n_origins=4)
        assert point.blocked == 0
        assert point.indicator == "all-scion"

    @pytest.mark.parametrize("scenario,expected", [
        ("baseline", IndicatorState.ALL_SCION),
        ("quic-outage", IndicatorState.NO_SCION),
    ])
    def test_fault_world_indicator_degrades(self, scenario, expected):
        from repro.experiments.fault_battery import _prepare_scenario
        world = build_fault_world(seed=500, n_resources=3)
        _prepare_scenario(world, scenario)
        result = world.internet.loop.run_process(
            world.browser.load(world.page))
        assert result.indicator_state is expected
        assert result.ok_count == 4
        assert result.degraded_fraction == 0.0


@pytest.mark.chaos
class TestFullBattery:
    """The acceptance run: every scenario × mode at real trial counts."""

    @pytest.fixture(scope="class")
    def battery(self):
        return run(CHAOS, trials=5)

    def test_every_cell_present(self, battery):
        assert set(battery.cells) == {(s, m) for s in SCENARIOS
                                      for m in MODES}

    def test_baseline_is_clean_in_both_modes(self, battery):
        for mode in MODES:
            cell = battery.cell("baseline", mode)
            assert cell.ok == cell.total
            assert cell.failover == cell.fallback == cell.failed == 0

    def test_link_flap_fails_over_without_fallback(self, battery):
        for mode in MODES:
            cell = battery.cell("link-flap", mode)
            assert cell.failover > 0, mode
            assert cell.fallback == 0, mode
            assert cell.failed == 0, mode

    def test_transports_absorb_loss_and_latency(self, battery):
        for scenario in ("loss-burst", "latency-spike"):
            for mode in MODES:
                cell = battery.cell(scenario, mode)
                assert cell.failed == 0, (scenario, mode)
                assert cell.plt.median >= \
                    battery.cell("baseline", mode).plt.median, \
                    (scenario, mode)

    def test_opportunistic_recovers_what_strict_blocks(self, battery):
        """The ≥3-scenario acceptance criterion."""
        assert len(FALLBACK_SCENARIOS) >= 3
        for scenario in FALLBACK_SCENARIOS:
            opportunistic = battery.cell(scenario, "opportunistic")
            strict = battery.cell(scenario, "strict")
            assert opportunistic.failed == 0, scenario
            assert opportunistic.fallback == opportunistic.total, scenario
            assert strict.failed == strict.total, scenario
            assert strict.ok == 0, scenario
