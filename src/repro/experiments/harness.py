"""Trial running and box-plot statistics.

The paper presents PLT distributions as box plots over repeated page
loads. :class:`BoxStats` captures exactly the quantities a box plot
shows (quartiles, whiskers as min/max, plus mean/std for the tables in
EXPERIMENTS.md); :func:`run_condition` runs one scenario callable over a
battery of seeds, each trial in a completely fresh world, so trials are
independent and the whole battery is reproducible.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import pickle
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.errors import ReproError

#: Environment variable overriding the default worker count.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """The effective trial-level parallelism.

    Explicit ``workers`` wins; otherwise the ``REPRO_WORKERS`` environment
    variable; otherwise ``os.cpu_count()``. Always at least 1 (serial).
    """
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ReproError(f"{WORKERS_ENV}={env!r} is not an integer")
    return os.cpu_count() or 1


@dataclass(frozen=True)
class BoxStats:
    """Box-plot summary of one measurement series."""

    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    std: float

    @classmethod
    def from_samples(cls, samples: list[float]) -> "BoxStats":
        """Compute the summary; requires at least one sample."""
        if not samples:
            raise ReproError("cannot summarize zero samples")
        # Imported here: only summaries need numpy, and importing it costs
        # more than the rest of ``import repro`` together, which every
        # spawned worker and fresh-process trial would otherwise pay.
        import numpy as np

        data = np.asarray(samples, dtype=float)
        return cls(
            n=len(samples),
            minimum=float(data.min()),
            q1=float(np.percentile(data, 25)),
            median=float(np.percentile(data, 50)),
            q3=float(np.percentile(data, 75)),
            maximum=float(data.max()),
            mean=float(data.mean()),
            std=float(data.std(ddof=1)) if len(samples) > 1 else 0.0,
        )

    def row(self, label: str, unit: str = "ms") -> str:
        """One formatted table row."""
        return (f"{label:<24} n={self.n:<3} min={self.minimum:8.1f} "
                f"q1={self.q1:8.1f} med={self.median:8.1f} "
                f"q3={self.q3:8.1f} max={self.maximum:8.1f} "
                f"mean={self.mean:8.1f} {unit}")


def summarize(samples: list[float]) -> BoxStats:
    """Shorthand for :meth:`BoxStats.from_samples`."""
    return BoxStats.from_samples(samples)


# ---------------------------------------------------------------------------
# Parallel trial execution
# ---------------------------------------------------------------------------
#
# Trials are independent by contract (each builds a fresh world from its
# seed), so a battery parallelizes perfectly. The pool uses the *spawn*
# start method: workers import the trial function by reference instead of
# inheriting arbitrary forked state, which keeps parallel runs bit-identical
# to serial ones on every platform. One pool is kept alive per worker count
# so its startup cost amortizes across the many `run_condition` calls a
# full `run_all` regeneration makes.

_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def _shutdown_pool() -> None:
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
        _pool_workers = 0


atexit.register(_shutdown_pool)


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_workers
    if _pool is None or _pool_workers < workers:
        _shutdown_pool()
        _pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"))
        _pool_workers = workers
    return _pool


def _run_trial(payload: tuple[Callable[[int], float], int]) -> float:
    trial, seed = payload
    return trial(seed)


def _picklable(trial: Callable[[int], float]) -> bool:
    try:
        pickle.dumps(trial)
        return True
    except (pickle.PicklingError, AttributeError, TypeError):
        return False


def battery_chunksize(n_seeds: int, workers: int) -> int:
    """Pool chunksize splitting ``n_seeds`` into ~4 waves per worker.

    Ceil division: floor left a remainder of up to ``workers * 4 - 1``
    straggler seeds dispatched one by one at the tail of big batteries
    (and the final partial chunk serializes behind full ones).
    """
    return max(1, math.ceil(n_seeds / (workers * 4)))


class PendingSamples:
    """A battery submitted to the pool whose results are not collected yet.

    ``Executor.map`` submits every chunk eagerly, so constructing one of
    these (via :func:`submit_samples`) starts the trials; :meth:`collect`
    blocks for the results in seed order. Holding several PendingSamples
    at once is what gives ``run_all`` battery-level parallelism: every
    battery's trials interleave in one shared pool instead of each
    battery draining before the next is submitted.
    """

    def __init__(self, trial: Callable[[int], float], seeds: Sequence[int],
                 results: "Iterator[float] | list[float]") -> None:
        self._trial = trial
        self._seeds = seeds
        self._results = results

    def collect(self) -> list[float]:
        """Block until all samples are in; returns them in seed order.

        Falls back to serial recomputation if the worker pool broke
        mid-battery, so a crash in one worker degrades to a slow run,
        never a lost battery.
        """
        if isinstance(self._results, list):
            return self._results
        try:
            samples = list(self._results)
        except BrokenProcessPool:
            _shutdown_pool()
            samples = [self._trial(seed) for seed in self._seeds]
        self._results = samples
        return samples


def submit_samples(trial: Callable[[int], float], seeds: Sequence[int],
                   workers: int | None = None) -> PendingSamples:
    """Start ``[trial(seed) for seed in seeds]`` on the shared pool.

    Returns immediately with a :class:`PendingSamples`; serial and
    non-picklable cases compute eagerly so ``collect()`` never surprises
    with a different execution mode than the arguments imply.
    """
    workers = min(resolve_workers(workers), len(seeds))
    if workers > 1 and _picklable(trial):
        pool = _shared_pool(workers)
        payloads = [(trial, seed) for seed in seeds]
        chunksize = battery_chunksize(len(seeds), workers)
        try:
            results = pool.map(_run_trial, payloads, chunksize=chunksize)
            return PendingSamples(trial, seeds, results)
        except BrokenProcessPool:
            _shutdown_pool()
    return PendingSamples(trial, seeds, [trial(seed) for seed in seeds])


def run_samples(trial: Callable[[int], float], seeds: Sequence[int],
                workers: int | None = None) -> list[float]:
    """``[trial(seed) for seed in seeds]``, fanned out over ``workers``
    processes when possible.

    The seed→trial mapping is positional and the pool preserves input
    order, so the returned samples are identical to a serial run no
    matter how trials interleave across workers. Falls back to serial
    execution for non-picklable trials (e.g. lambdas/closures) and when
    a worker pool breaks mid-battery.
    """
    return submit_samples(trial, seeds, workers=workers).collect()


def run_condition(trial: Callable[[int], float], trials: int,
                  base_seed: int = 0, workers: int | None = None) -> BoxStats:
    """Run ``trial(seed)`` for ``trials`` distinct seeds and summarize.

    Each call must build its own world from the seed — nothing may leak
    between trials (caches, pooled connections, HSTS state). With
    ``workers`` > 1 (default: ``os.cpu_count()``, overridable via the
    ``REPRO_WORKERS`` env var) trials fan out over a spawn-based process
    pool; results are bit-identical to a serial run because each trial
    is a pure function of its seed and samples are collected in seed
    order.
    """
    seeds = range(base_seed, base_seed + trials)
    return BoxStats.from_samples(run_samples(trial, seeds, workers=workers))


@dataclass
class ExperimentResult:
    """A named experiment with one summary per condition."""

    name: str
    description: str
    conditions: dict[str, BoxStats] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, condition: str, stats: BoxStats) -> None:
        """Record one condition's summary."""
        self.conditions[condition] = stats

    def median(self, condition: str) -> float:
        """A condition's median (convenience for assertions)."""
        return self.conditions[condition].median

    def render(self) -> str:
        """The experiment as a text table."""
        lines = [f"== {self.name} ==", self.description, ""]
        for condition, stats in self.conditions.items():
            lines.append(stats.row(condition))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


@dataclass
class PendingExperiment:
    """An experiment whose condition batteries are in flight on the pool.

    ``submit_*`` experiment entry points build one of these by calling
    :meth:`add_pending` per condition (submitting the battery) and
    :meth:`collect` turns it into the finished
    :class:`ExperimentResult`, summarizing conditions in submission
    order — so results are byte-identical to the sequential form no
    matter how the pool interleaves batteries.
    """

    result: ExperimentResult
    _pending: list[tuple[str, PendingSamples]] = field(default_factory=list)

    def add_pending(self, condition: str, pending: PendingSamples) -> None:
        """Register one condition's in-flight battery."""
        self._pending.append((condition, pending))

    def collect(self) -> ExperimentResult:
        """Wait for every battery and assemble the result."""
        for condition, pending in self._pending:
            self.result.add(condition, BoxStats.from_samples(pending.collect()))
        self._pending.clear()
        return self.result
