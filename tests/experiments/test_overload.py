"""The overload battery: determinism, knob identity, the storm contrast.

The expensive claims (metastable collapse off, graceful degradation on,
drain bounds) are ``python -m repro.experiments overload --selftest``,
which ``TestSelftest`` runs at the CLI's own size. The rest pins the
*contracts*: trials are pure functions of ``(arm, seed, config)``,
serial and worker-pool batteries are bit-identical, and fault-free runs
with the protection knobs off replay the exact pre-overload-PR streams.
"""

import dataclasses

import pytest

from repro.experiments.__main__ import main
from repro.experiments.harness import run
from repro.experiments.overload import (
    ARMS,
    DEFAULT_CONFIG,
    OVERLOAD,
    OverloadConfig,
    overload_trial,
)
from repro.internet.knobs import forced_many
from repro.scion.admission import ADMISSION_ENV
from repro.core.skip.retry_budget import RETRY_BUDGET_ENV
from repro.workload.arrivals import burst_window_ms

#: A lighter crowd for the cheap determinism checks (the full contrast
#: needs the default 78-user regime; the selftest covers that).
SMALL = dataclasses.replace(DEFAULT_CONFIG, users=24)


class TestDeterminism:
    @pytest.mark.parametrize("arm", ARMS)
    def test_trial_is_a_pure_function(self, arm):
        assert overload_trial(arm, 1201, SMALL) == \
            overload_trial(arm, 1201, SMALL)

    def test_seeds_differ(self):
        assert overload_trial("protections-on", 1201, SMALL) != \
            overload_trial("protections-on", 1202, SMALL)

    def test_serial_matches_worker_pool(self):
        serial = run(OVERLOAD, config=SMALL, trials=2, workers=1)
        pooled = run(OVERLOAD, config=SMALL, trials=2, workers=4)
        assert serial.samples == pooled.samples


class TestKnobIdentity:
    def test_fault_free_figure3_untouched_by_protection_knobs(self):
        """With no overload in sight, disabling admission control and
        the retry budget must not move a single sample: the protections
        consume no RNG and add no events unless they actually fire."""
        from repro.experiments.local_setup import figure3_trial_events

        def probe():
            return [figure3_trial_events(condition, seed, n_resources=6)
                    for condition in ("SCION-only", "mixed SCION-IP")
                    for seed in (100, 101)]

        with forced_many({ADMISSION_ENV: True, RETRY_BUDGET_ENV: True}):
            protected = probe()
        with forced_many({ADMISSION_ENV: False, RETRY_BUDGET_ENV: False}):
            naive = probe()
        assert protected == naive

    def test_off_arm_never_sheds_or_budgets(self):
        off = overload_trial("protections-off", 1201, SMALL)
        assert off.requests_shed == 0
        assert off.peak_queue_depth == 0
        assert off.budget_retries_spent == 0
        assert off.retry_budget_exhausted == 0

    def test_unknown_arm_rejected(self):
        with pytest.raises(ValueError):
            overload_trial("protections-maybe", 1201, SMALL)


class TestContrast:
    """One default-regime seed pair; the selftest sweeps the rest."""

    def test_storm_off_vs_graceful_on(self, overload_samples):
        on = overload_samples["protections-on"]
        off = overload_samples["protections-off"]
        spike_start, spike_end = burst_window_ms(DEFAULT_CONFIG.arrival)
        # Off: the retry storm amplifies load and outlives the spike.
        assert off.retry_amplification > 2.0
        assert off.time_to_drain_ms > spike_end - spike_start
        # On: bounded queues, explicit shedding, fast drain.
        assert on.retry_amplification < off.retry_amplification
        assert on.requests_shed > 0
        assert 0.0 < on.shed_fraction < 1.0
        assert on.peak_queue_depth > 0
        assert on.time_to_drain_ms <= spike_end - spike_start
        assert on.goodput_ratio > off.goodput_ratio

    def test_sample_accounting_consistent(self, overload_samples):
        sample = overload_samples["protections-on"]
        assert sample.loads == DEFAULT_CONFIG.users
        assert sample.failed_loads <= sample.loads
        assert 0 <= sample.shed_served_stale <= sample.requests_shed
        assert sample.duration_ms > 0
        assert sample.events > 0


class TestSelftest:
    def test_selftest_passes(self):
        assert main(["overload", "--selftest"]) == 0


class TestConfig:
    def test_frozen_and_picklable(self):
        import pickle
        config = OverloadConfig()
        assert pickle.loads(pickle.dumps(config)) == config
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.users = 1
