"""The resilience battery: self-healing recovery beats timeout discovery.

Fast checks (one trial pair) run in tier 1; the full battery at real
trial counts — including the serial vs. worker-pool bit-identity the
acceptance criteria demand — is marked ``chaos``.
"""

import pytest

from repro.experiments.fault_battery import build_fault_world
from repro.experiments.harness import run
from repro.experiments.resilience_battery import (
    FLAPS,
    MODES,
    RESILIENCE,
    SESSION_LOADS,
    churn_schedule,
    resilience_holds,
    resilience_trial,
)
from repro.simnet.faults import FaultKind


class TestChurnSchedule:
    def test_flaps_target_the_detour_core_link(self):
        world = build_fault_world(seed=1)
        schedule = churn_schedule(world.ases)
        assert len(schedule) == len(FLAPS)
        for spec, (at_ms, duration_ms) in zip(schedule.specs, FLAPS):
            assert spec.kind is FaultKind.LINK_DOWN
            assert str(world.ases.third_core) in spec.target
            assert spec.at_ms == at_ms
            assert spec.duration_ms == duration_ms

    def test_world_threads_the_revocation_switch(self):
        assert build_fault_world(seed=1, revocation=True) \
            .internet.revocations.enabled
        assert not build_fault_world(seed=1, revocation=False) \
            .internet.revocations.enabled


class TestResilienceTrial:
    def test_trial_is_a_pure_function_of_its_arguments(self):
        a = resilience_trial(True, "opportunistic", seed=4200)
        b = resilience_trial(True, "opportunistic", seed=4200)
        assert a == b

    def test_revocation_recovers_faster_than_timeout_discovery(self):
        on = resilience_trial(True, "opportunistic", seed=4200)
        off = resilience_trial(False, "opportunistic", seed=4200)
        on_ttr, on_plt, on_failed, on_lost = on
        off_ttr, off_plt, off_failed, off_lost = off
        assert on_ttr < off_ttr
        assert on_plt < off_plt
        assert on_failed < off_failed
        assert on_lost <= off_lost
        # With dissemination, the next scheduled load after the flap is
        # already clean: TTR is bounded by one load period plus the load
        # itself, nowhere near a request timeout.
        assert on_ttr < 10_000.0


@pytest.mark.chaos
class TestFullResilienceBattery:
    """The acceptance run: revocation-on strictly wins in both modes,
    and the worker pool changes nothing."""

    @pytest.fixture(scope="class")
    def batteries(self):
        serial = run(RESILIENCE, trials=4, workers=1)
        pooled = run(RESILIENCE, trials=4, workers=4)
        return serial, pooled

    def test_serial_and_pooled_runs_are_bit_identical(self, batteries):
        serial, pooled = batteries
        assert serial.cells == pooled.cells
        assert serial.render() == pooled.render()

    def test_every_cell_present(self, batteries):
        serial, _pooled = batteries
        assert set(serial.cells) == {(rev, mode) for rev in (True, False)
                                     for mode in MODES}
        for cell in serial.cells.values():
            assert cell.ttr.n == 4
            assert cell.total_requests == 4 * SESSION_LOADS * 5

    def test_revocation_on_recovers_strictly_faster_in_both_modes(
            self, batteries):
        serial, _pooled = batteries
        assert resilience_holds(serial)
        for mode in MODES:
            on = serial.cell(True, mode)
            off = serial.cell(False, mode)
            assert on.ttr.maximum < off.ttr.minimum, mode
            assert on.plt.mean < off.plt.mean, mode
            assert on.failed_requests < off.failed_requests, mode
            assert on.lost_requests <= off.lost_requests, mode

    def test_nothing_is_lost_outright_in_either_condition(self, batteries):
        # The churn kills one of two disjoint routes; with SCION
        # failover (and opportunistic's IP escape) nothing should ever
        # be lost — the conditions differ in *how fast* and *how
        # cleanly* they heal, not in eventual delivery.
        serial, _pooled = batteries
        for cell in serial.cells.values():
            assert cell.lost_requests == 0
