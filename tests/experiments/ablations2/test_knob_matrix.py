"""The differential correctness gate, as plain parametrized tests.

Every off-switch that promises ``bit_identical`` must reproduce the
fault-free figure-3 samples exactly — PLT *and* loop-event count — when
flipped, both in-process and on a workers=4 spawn pool (toggles are
forced inside the trial function, so pool workers see the same
environment a serial run does). The fast path promises only the
documented jitter-free PLT error bound, checked per seed.
"""

import dataclasses
import functools

import pytest

from repro.experiments import ablations2 as ab
from repro.experiments.harness import run_samples
from repro.experiments.local_setup import (DEFAULT_CALIBRATION,
                                           figure3_trial_events)
from repro.experiments.resilience_battery import resilience_trial
from repro.simnet.fastpath import FASTPATH_ENV, PLT_ERROR_BOUND

SEEDS = range(100, 102)
CONDITION = "mixed SCION-IP"
N_RESOURCES = 4

#: Env-knob components whose off-switch must be invisible on the
#: fault-free figure-3 slice.
BIT_IDENTICAL_KNOBS = [comp for comp in ab.COMPONENTS
                       if comp.contract == ab.BIT_IDENTICAL
                       and comp.knob is not None]


def figure3_samples(overrides, obs=False, jitter=True, workers=1):
    calibration = DEFAULT_CALIBRATION if jitter else dataclasses.replace(
        DEFAULT_CALIBRATION, host_jitter_ms=0.0)
    trial = functools.partial(ab.pinned_trial,
                              tuple(sorted(overrides.items())),
                              figure3_trial_events, CONDITION,
                              n_resources=N_RESOURCES, obs=obs,
                              calibration=calibration)
    return run_samples(trial, SEEDS, workers=workers)


@pytest.fixture(scope="module")
def baseline():
    """Samples with every registered knob pinned to its default."""
    return figure3_samples(ab.default_knob_states())


@pytest.mark.parametrize("comp", BIT_IDENTICAL_KNOBS,
                         ids=lambda comp: comp.name)
class TestBitIdenticalOffSwitches:
    def test_serial(self, comp, baseline):
        overrides = ab.default_knob_states()
        overrides[comp.knob] = comp.ablated_state
        assert figure3_samples(overrides) == baseline

    def test_workers_pool(self, comp, baseline):
        overrides = ab.default_knob_states()
        overrides[comp.knob] = comp.ablated_state
        assert figure3_samples(overrides, workers=4) == baseline


class TestTracingToggle:
    """Tracing is the one kwarg toggle (``obs=``): attaching a tracer
    must not move a single event."""

    def test_serial(self, baseline):
        assert figure3_samples(ab.default_knob_states(),
                               obs=True) == baseline

    def test_workers_pool(self, baseline):
        assert figure3_samples(ab.default_knob_states(), obs=True,
                               workers=4) == baseline


class TestFastpathBound:
    """The fast path's off-switch is *not* bit-identical under jitter
    (expected-value draws, by design); jitter-free it must track the
    oracle within the documented bound, seed for seed."""

    def test_jitter_free_error_within_bound(self):
        defaults = ab.default_knob_states()
        on = figure3_samples(defaults, jitter=False)
        overrides = dict(defaults)
        overrides[FASTPATH_ENV] = False
        off = figure3_samples(overrides, jitter=False)
        for (plt_on, _), (plt_off, _) in zip(on, off):
            assert abs(plt_on - plt_off) / plt_off <= PLT_ERROR_BOUND

    def test_oracle_identical_serial_vs_pool(self):
        overrides = dict(ab.default_knob_states())
        overrides[FASTPATH_ENV] = False
        serial = figure3_samples(overrides)
        pooled = figure3_samples(overrides, workers=4)
        assert serial == pooled


class TestResilienceOffSwitchDeterminism:
    """The resilience trial under forced knobs is a pure function of
    its arguments — serial and pool runs agree with revocation off."""

    def test_serial_matches_pool(self):
        overrides = dict(ab.default_knob_states())
        overrides["REPRO_REVOCATION"] = False
        trial = functools.partial(ab.pinned_trial,
                                  tuple(sorted(overrides.items())),
                                  resilience_trial, None, "opportunistic",
                                  loads=2)
        seeds = range(4200, 4202)
        serial = run_samples(trial, seeds, workers=1)
        pooled = run_samples(trial, seeds, workers=4)
        assert serial == pooled
