"""A broken process pool degrades to a serial battery, never a lost one.

``submit_samples`` falls back when the pool breaks while the battery is
being submitted, ``PendingSamples.collect`` when it breaks while the
results come in. Either way the samples are the serial ones in seed
order and the shared pool is shut down, so the next battery builds a
fresh one.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import harness
from repro.experiments.harness import run_samples

SEEDS = [5, 3, 8, 1]


def _double_trial(seed: int) -> float:
    """Module-level (hence picklable) trial."""
    return 2.0 * seed


def _broken_results():
    raise BrokenProcessPool("a worker died")
    yield  # pragma: no cover - makes this a generator


class _FakePool:
    def __init__(self, breaks_in_map: bool) -> None:
        self.breaks_in_map = breaks_in_map
        self.shutdowns = 0

    def map(self, fn, payloads, chunksize=1):
        if self.breaks_in_map:
            raise BrokenProcessPool("the pool broke on submit")
        return _broken_results()

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns += 1


@pytest.mark.parametrize("breaks_in_map", [True, False],
                         ids=["submit", "collect"])
def test_broken_pool_falls_back_to_serial_samples(monkeypatch,
                                                  breaks_in_map):
    pool = _FakePool(breaks_in_map)
    # The shared pool is the fake one, already big enough to be reused.
    monkeypatch.setattr(harness, "_pool", pool)
    monkeypatch.setattr(harness, "_pool_workers", 8)
    samples = run_samples(_double_trial, SEEDS, workers=2)
    assert samples == [10.0, 6.0, 16.0, 2.0]
    assert pool.shutdowns == 1
    assert harness._pool is None
