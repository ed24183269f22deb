"""Chaos-tier soak: wider fast-path seeds and leak-freedom.

Tier 1 checks the fast-path bound on the harness's base seeds; this
battery widens to five extra seeds per condition and then soaks a full
traced churn session to assert no probes, timers, or spans leak —
everything the ablation toggles touch must be quiescent when the loop
drains.
"""

import dataclasses
import functools

import pytest

from repro.experiments import components as ab
from repro.experiments.fault_battery import build_fault_world
from repro.experiments.harness import run_samples
from repro.experiments.local_setup import (DEFAULT_CALIBRATION,
                                           figure3_trial_events)
from repro.experiments.resilience_battery import (
    N_RESOURCES,
    SESSION_LOADS,
    _session,
    churn_schedule,
)
from repro.simnet.fastpath import FASTPATH_ENV, PLT_ERROR_BOUND
from repro.simnet.faults import inject

EXTRA_SEEDS = range(102, 107)


@pytest.mark.chaos
class TestFastpathBoundWiderSeeds:
    @pytest.mark.parametrize("condition", ["SCION-only", "mixed SCION-IP",
                                           "BGP/IP-only", "strict-SCION"])
    def test_five_extra_seeds_stay_within_bound(self, condition):
        defaults = ab.default_knob_states()
        ablated = dict(defaults)
        ablated[FASTPATH_ENV] = False

        def samples(overrides):
            trial = functools.partial(
                ab.pinned_trial, tuple(sorted(overrides.items())),
                figure3_trial_events, condition, n_resources=8,
                calibration=dataclasses.replace(DEFAULT_CALIBRATION,
                                                host_jitter_ms=0.0))
            return run_samples(trial, EXTRA_SEEDS, workers=1)

        for (plt_on, _), (plt_off, _) in zip(samples(defaults),
                                             samples(ablated)):
            assert abs(plt_on - plt_off) / plt_off <= PLT_ERROR_BOUND


@pytest.mark.chaos
class TestNothingLeaks:
    def test_traced_churn_session_leaves_no_residue(self):
        """After a full churn session: no half-open breaker probes, no
        in-flight revocation timers, no open spans."""
        world = build_fault_world(4300, n_resources=N_RESOURCES,
                                  revocation=True, obs=True)
        inject(world.internet, churn_schedule(world.ases))
        loop = world.internet.loop
        loop.run_process(_session(world, SESSION_LOADS))

        assert world.browser.proxy.breakers.probes_in_flight == 0
        assert world.internet.revocations.pending_propagations == 0
        assert world.tracer.open_spans() == []

    def test_ablation_sweep_leaves_the_environment_clean(self):
        """A whole sweep (toggles forced on and off repeatedly) must
        restore every knob: a later world sees pristine defaults."""
        import os

        before = {name: os.environ.get(name)
                  for name in ab.default_knob_states()}
        config = ab.AblationConfig(conditions=("SCION-only",), trials=1,
                                   n_resources=4, resilience_trials=1,
                                   resilience_loads=2, contract_trials=1)
        report = ab.run_ablations(config)
        assert report.all_ok, report.render()
        after = {name: os.environ.get(name)
                 for name in ab.default_knob_states()}
        assert after == before
