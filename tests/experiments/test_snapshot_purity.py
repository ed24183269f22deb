"""One control plane per topology: sharing it across seeds changes nothing.

Every trial seed over one topology resolves the same interned
``ControlPlaneSnapshot`` — and the per-path memo state other seeds'
worlds warmed inside it — so a trial must stay a pure function of its
own seed whatever the process ran before (``test_parallel`` covers
serial == cached == worker pool; this covers the cross-seed sharing).
"""

from __future__ import annotations

from repro.experiments import harness
from repro.experiments.remote_setup import FIGURE5
from repro.internet import snapshot

CELL = "multiple origins / SCION"
SEED = FIGURE5.base_seed


class TestCrossSeedSharing:
    def test_trial_is_pure_in_its_seed(self, monkeypatch):
        from_empty_cache = FIGURE5.trial(CELL, SEED)
        assert snapshot.stats.misses == 1

        snapshot.clear_cache()
        for other in (SEED + 1, SEED + 2, SEED + 3):
            FIGURE5.trial(CELL, other)
        after_other_seeds = FIGURE5.trial(CELL, SEED)
        assert snapshot.stats.misses == 2  # one per clear, not per seed
        assert snapshot.stats.hits == 3

        monkeypatch.setenv(snapshot.SNAPSHOT_CACHE_ENV, "0")
        uncached = FIGURE5.trial(CELL, SEED)
        assert snapshot.stats.bypasses == 1

        assert from_empty_cache == after_other_seeds == uncached

    def test_battery_builds_one_control_plane(self):
        harness.run(FIGURE5, trials=3, workers=1)
        assert snapshot.stats.misses == 1
        assert snapshot.stats.hits == 3 * len(FIGURE5.cells) - 1
