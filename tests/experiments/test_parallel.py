"""Parallel trial execution: worker resolution, determinism, fallbacks.

The paper's evaluation is built from repeated independent page-load
trials; fanning them over a process pool must not change a single
sample. The contract under test: ``run_condition(..., workers=N)``
returns **bit-identical** ``BoxStats`` to a serial run, because trials
are pure functions of their seed and samples are collected in seed
order regardless of worker interleaving.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import pickle

import pytest

from repro.errors import ReproError
from repro.experiments import harness
from repro.experiments.__main__ import EXPERIMENTS, REGISTRY
from repro.experiments.harness import (
    WORKERS_ENV,
    battery_chunksize,
    resolve_workers,
    run,
    run_condition,
    run_samples,
    submit,
    submit_samples,
)
from repro.experiments.fault_battery import CHAOS, MODES, fault_trial
from repro.experiments.local_setup import figure3_trial
from repro.internet.snapshot import SNAPSHOT_CACHE_ENV
from repro.workload.arrivals import ArrivalCurve


def _identity_trial(seed: int) -> float:
    """Module-level (hence picklable) trial: sample == seed."""
    return float(seed)


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers() == 5

    def test_default_is_cpu_count(self, monkeypatch):
        import os
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == (os.cpu_count() or 1)

    def test_floor_is_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ReproError):
            resolve_workers()


class TestBatteryChunksize:
    def test_ceil_division(self):
        # floor would say 2 here and strand a 4-seed partial chunk
        # behind twelve full ones; ceil spreads the tail.
        assert battery_chunksize(100, 3) == 9
        assert battery_chunksize(17, 4) == 2
        assert battery_chunksize(16, 4) == 1
        assert battery_chunksize(1, 8) == 1

    def test_floor_is_one(self):
        assert battery_chunksize(3, 8) == 1

    @pytest.mark.parametrize("trials,workers", [
        (5, 2), (16, 4), (17, 4), (3, 8), (40, 3), (64, 4),
    ])
    def test_every_seed_covered_exactly_once(self, trials, workers):
        """No seed lost or duplicated by chunking, samples in seed
        order, for small-remainder, exact-multiple, and tiny batteries."""
        seeds = range(1000, 1000 + trials)
        samples = run_samples(_identity_trial, seeds, workers=workers)
        assert samples == [float(seed) for seed in seeds]

    def test_submit_then_collect_matches_run(self):
        pending = submit_samples(_identity_trial, range(10), workers=4)
        assert pending.collect() == [float(seed) for seed in range(10)]
        # collect() is idempotent.
        assert pending.collect() == [float(seed) for seed in range(10)]


class TestRegistry:
    """Every declared battery runs through the one ``submit`` / ``run``,
    and the pool replays the serial run sample for sample."""

    #: What keeps two trials of every cell in the low seconds.
    SMALL = {
        "chaos": dict(n_resources=3),
        "resilience": dict(loads=2),
        "population": dict(users=4, sites=4,
                           arrival=ArrivalCurve(window_ms=2_000.0)),
        "overload": dict(users=8),
    }

    def test_names_are_unique(self):
        assert len(REGISTRY) == len(EXPERIMENTS) + 2
        assert len({entry.label for entry in EXPERIMENTS}) \
            == len({entry.title for entry in EXPERIMENTS}) \
            == len(EXPERIMENTS)

    @pytest.mark.parametrize(
        "battery", [entry for entry in EXPERIMENTS if entry.cells],
        ids=lambda battery: battery.name)
    def test_pool_replays_the_serial_run(self, battery):
        pickle.dumps(battery.trial)
        small = self.SMALL.get(battery.name, {})
        serial = submit(battery, trials=2, workers=1, **small).collect()
        pooled = run(battery, trials=2, workers=2, **small)
        assert serial == pooled
        assert battery.render(serial) == battery.render(pooled)


class TestParallelDeterminism:
    def test_samples_preserve_seed_order(self):
        samples = run_samples(_identity_trial, range(20, 28), workers=4)
        assert samples == [float(seed) for seed in range(20, 28)]

    def test_figure3_scenario_parallel_equals_serial(self):
        """The acceptance-criterion check: identical BoxStats (all eight
        fields) for serial vs. workers=4 on a figure-3 trial battery."""
        trial = functools.partial(figure3_trial, "mixed SCION-IP",
                                  n_resources=6)
        serial = run_condition(trial, trials=8, base_seed=100, workers=1)
        parallel = run_condition(trial, trials=8, base_seed=100, workers=4)
        for field in dataclasses.fields(serial):
            assert getattr(serial, field.name) == \
                getattr(parallel, field.name), field.name
        assert serial == parallel

    def test_fault_trial_parallel_equals_serial(self):
        """Chaos trials build their own worlds *and* fault schedules from
        the seed, so the worker pool must reproduce them sample for
        sample — every float of every (plt, ok, failover, fallback,
        failed) tuple."""
        trial = functools.partial(fault_trial, "link-flap",
                                  "opportunistic", n_resources=3)
        serial = run_samples(trial, range(500, 506), workers=1)
        parallel = run_samples(trial, range(500, 506), workers=4)
        assert serial == parallel

    def test_fault_battery_parallel_equals_serial(self):
        """Same seed + same schedule ⇒ bit-identical BoxStats (and
        recovery counts) whether the battery ran serially or on four
        workers."""
        kwargs = dict(trials=4, n_resources=3,
                      cells=list(itertools.product(
                          ("link-flap", "quic-outage"), MODES)))
        serial = run(CHAOS, workers=1, **kwargs)
        parallel = run(CHAOS, workers=4, **kwargs)
        assert serial.cells == parallel.cells
        for cell_key, cell in serial.cells.items():
            for field in dataclasses.fields(cell.plt):
                assert getattr(cell.plt, field.name) == getattr(
                    parallel.cells[cell_key].plt, field.name), \
                    (cell_key, field.name)

    def test_figure3_serial_cached_and_workers_agree(self, monkeypatch):
        """The tentpole's acceptance criterion: an uncached serial run, a
        snapshot-cached serial run (cache warm from a first pass), and a
        workers=4 run of the same figure-3 battery produce identical
        BoxStats — the snapshot cache must not change a single bit."""
        trial = functools.partial(figure3_trial, "SCION-only",
                                  n_resources=6)
        cached_cold = run_condition(trial, trials=6, base_seed=100,
                                    workers=1)
        cached_warm = run_condition(trial, trials=6, base_seed=100,
                                    workers=1)
        parallel = run_condition(trial, trials=6, base_seed=100, workers=4)
        monkeypatch.setenv(SNAPSHOT_CACHE_ENV, "0")
        uncached = run_condition(trial, trials=6, base_seed=100, workers=1)
        assert uncached == cached_cold == cached_warm == parallel

    def test_fault_battery_cached_equals_uncached(self, monkeypatch):
        """Chaos trials (including the path-server-outage scenario that
        flips per-world mutable state) must not observe the shared
        snapshot: cached and uncached batteries agree cell for cell."""
        kwargs = dict(trials=3, n_resources=3,
                      cells=list(itertools.product(
                          ("baseline", "infra-outage", "segment-expiry"),
                          MODES)))
        cached = run(CHAOS, workers=1, **kwargs)
        rerun = run(CHAOS, workers=1, **kwargs)
        monkeypatch.setenv(SNAPSHOT_CACHE_ENV, "0")
        uncached = run(CHAOS, workers=1, **kwargs)
        assert cached.cells == rerun.cells == uncached.cells

    def test_non_picklable_trial_falls_back_to_serial(self):
        calls = []

        def closure_trial(seed: int) -> float:  # not picklable
            calls.append(seed)
            return float(seed)

        stats = run_condition(closure_trial, trials=4, base_seed=10,
                              workers=4)
        assert calls == [10, 11, 12, 13]
        assert stats.minimum == 10.0
        assert stats.maximum == 13.0

    def test_workers_one_never_touches_a_pool(self, monkeypatch):
        monkeypatch.setattr(harness, "_shared_pool",
                            lambda workers: pytest.fail("pool created"))
        stats = run_condition(_identity_trial, trials=3, workers=1)
        assert stats.n == 3

    def test_single_trial_stays_serial(self, monkeypatch):
        monkeypatch.setattr(harness, "_shared_pool",
                            lambda workers: pytest.fail("pool created"))
        stats = run_condition(_identity_trial, trials=1, workers=8)
        assert stats.n == 1
