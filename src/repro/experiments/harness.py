"""What every experiment shares: trial running, box-plot statistics, the
:class:`Battery` record and the world records.

The paper presents PLT distributions as box plots over repeated page
loads. :class:`BoxStats` captures exactly the quantities a box plot
shows (quartiles, whiskers as min/max, plus mean/std for the tables in
EXPERIMENTS.md); :func:`run_condition` runs one scenario callable over a
battery of seeds, each trial in a completely fresh world, so trials are
independent and the whole battery is reproducible.

Every experiment since is the same arc — build a world from a seed, run
one trial per seed per cell, collect in seed order, summarise, judge a
shape — so each is declared once as a :class:`Battery` at the bottom of
the module that owns its trial, and :func:`submit` / :func:`run` are the
only way to execute one. ``python -m repro.experiments`` lists them.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import math
import multiprocessing
import operator
import os
import pickle
import time
from collections.abc import Callable, Iterator, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.internet.knobs import resolve_int_knob

#: Environment variable overriding the default worker count.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """The effective trial-level parallelism.

    Explicit ``workers`` wins; otherwise the ``REPRO_WORKERS`` environment
    variable; otherwise ``os.cpu_count()``. Always at least 1 (serial).
    """
    return resolve_int_knob(WORKERS_ENV, workers, os.cpu_count() or 1)


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


def mean(values) -> float:
    """Plain ``sum / len`` (the reducers' arithmetic; never reordered)."""
    values = list(values)
    return sum(values) / len(values)


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
    """One cell's trials submitted to the pool, results not collected yet.

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


def plt_result(name: str, description: str, rows_by_cell: Mapping,
               note: str) -> ExperimentResult:
    """The ``assemble`` step of a PLT-per-condition battery: one box
    plot per cell, labelled by the cell's condition."""
    result = ExperimentResult(name, description, notes=[note])
    for cell, samples in rows_by_cell.items():
        result.add(cell[-1], BoxStats.from_samples(samples))
    return result


# ---------------------------------------------------------------------------
# The battery record
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Battery:
    """One experiment, declared once (so compared by identity).

    ``run_all`` (summary row, report block, ``results/<artifact>``), the
    ``python -m repro.experiments <name>`` CLI, the component-ablation
    harness, the fast-path A/B and ``repro.obs trace`` all read this
    record instead of naming experiments. A *pooled* battery has
    ``cells`` and a ``trial``; a *serial* one (Table 1, Ablations B–E,
    the two harness tools) has neither and does its work in
    ``assemble``.
    """

    #: Registry / CLI name, and the row label and block title of the
    #: generated report.
    name: str
    label: str
    title: str
    #: The predicate deciding the summary row's "Holds" cell and the
    #: CLI's exit status.
    holds: Callable[[Any], bool]
    #: ``assemble(trials, rows_by_cell, **params)`` → the result object.
    assemble: Callable[..., Any]
    #: The rest of the summary row: the paper's claim and the measured
    #: shape as text (the two harness tools judge no claim).
    claim: str = ""
    measured: Callable[[Any], str] | None = None
    #: Cell keys in presentation order; ``trial(*cell, seed, **params)``
    #: is module-level so the pool can pickle it. Seeds run from
    #: ``base_seed``; ``trials`` is the paper-scale count per cell.
    cells: tuple[tuple, ...] = ()
    trial: Callable[..., Any] | None = None
    base_seed: int = 0
    trials: int = 0
    #: Text of a result (``result.render()`` unless the result is a list).
    render: Callable[[Any], str] = operator.methodcaller("render")
    #: ``run_all`` runs the battery only when asked (``--<name>``).
    opt_in: bool = False
    #: File name under ``results/`` for the machine-readable result.
    artifact: str | None = None
    #: ``configure(**params)`` → the trial's keyword arguments, resolved
    #: once in the submitting process (environment knobs, CLI shorthands).
    configure: Callable[..., dict] | None = None
    #: Trial parameters the CLI exposes: ``(name, type, help)``; a
    #: ``bool`` becomes a flag.
    options: tuple[tuple[str, type, str], ...] = ()
    #: ``traced(*cell, seed, **params)`` → ``(world, result)`` with
    #: ``world.tracer`` attached, and the cell whose load explains the
    #: battery (``run_all --obs``, ``repro.obs trace``).
    traced: Callable[..., tuple] | None = None
    traced_cell: tuple = ()
    #: ``--selftest``: a checklist ``selftest(check)`` calling
    #: ``check(label, passed)`` per claim, or the parameters of a small
    #: run whose ``holds`` is the verdict.
    selftest: Callable[[Callable], None] | Mapping[str, Any] | None = None
    #: What the component harness scores on: the trial whose row tuples
    #: it compares (default ``trial``) and one ``(metric, reduce)`` per
    #: column of that row.
    score_trial: Callable[..., tuple] | None = None
    reducers: tuple[tuple[str, Callable], ...] = ()


class Pending:
    """A submitted battery; :meth:`collect` blocks for its result.

    Cells are assembled in submission order, so the result is
    byte-identical to a serial run however the pool interleaved them.
    """

    def __init__(self, battery: Battery, trials: int,
                 cells: list[tuple[tuple, PendingSamples]],
                 params: dict) -> None:
        self.battery = battery
        self._trials = trials
        self._cells = cells
        self._params = params

    def collect(self) -> Any:
        """Wait for every cell and assemble the battery's result."""
        rows = {cell: samples.collect() for cell, samples in self._cells}
        return self.battery.assemble(self._trials, rows, **self._params)


def submit(battery: Battery, trials: int | None = None,
           workers: int | None = None, base_seed: int | None = None,
           cells: Sequence[tuple] | None = None, **params) -> Pending:
    """Start every cell of ``battery`` on the shared pool.

    ``trials`` / ``base_seed`` / ``cells`` default to the declaration
    (paper scale); ``params`` reach both the trial and ``assemble``.
    """
    trials = battery.trials if trials is None else trials
    base = battery.base_seed if base_seed is None else base_seed
    if battery.configure is not None:
        params = battery.configure(**params)
    seeds = range(base, base + trials)
    # functools.partial keeps the trial picklable for worker processes.
    in_flight = [(cell, submit_samples(
        functools.partial(battery.trial, *cell, **params), seeds,
        workers=workers))
        for cell in (battery.cells if cells is None else cells)]
    return Pending(battery, trials, in_flight, params)


def serial(compute: Callable[..., Any]) -> Callable[..., Any]:
    """The ``assemble`` of a battery without pooled trials: all of its
    work happens in ``compute(**params)`` when the result is collected."""
    return lambda _trials, _rows_by_cell, **params: compute(**params)


def run(battery: Battery, **kwargs) -> Any:
    """``submit(battery, **kwargs).collect()``."""
    return submit(battery, **kwargs).collect()


def run_checklist(battery: Battery) -> bool:
    """Run a checklist ``selftest``: one printed line per check, then
    the verdict."""
    started = time.perf_counter()
    failed = []

    def check(label: str, passed: bool) -> None:
        print(f"{battery.name} {label}: {'ok' if passed else 'FAIL'}")
        if not passed:
            failed.append(label)

    battery.selftest(check)
    print(f"{battery.name} selftest: {'FAIL' if failed else 'PASS'} in "
          f"{time.perf_counter() - started:.1f}s")
    return not failed


def to_json(value: Any) -> Any:
    """A result as JSON-ready data; an object's own ``to_json`` wins."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {key if isinstance(key, str) else " / ".join(map(str, key)):
                to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(item) for item in value]
    return value


def write_json(path: "str | os.PathLike", result: Any) -> str:
    """Persist a result's machine-readable form (the stable JSON the
    obs artifacts use); returns the path."""
    from repro.obs.export import write_artifact

    return str(write_artifact(path, to_json(result)))


# ---------------------------------------------------------------------------
# World records
# ---------------------------------------------------------------------------


@dataclass
class World:
    """One freshly-built single-browser world."""

    internet: Any
    browser: Any
    page: Any
    #: Observability tracer, present when built with ``obs=True``.
    tracer: Any = None
    #: The origin server and the testbed's AS record, where a scenario
    #: needs to reach them (fault worlds).
    server: Any = None
    ases: Any = None


@dataclass
class Crowd:
    """One freshly-built world with a population of browsers."""

    internet: Any
    catalog: Any
    #: ``(user_id, browser, plan-or-page, arrival_ms)`` per user.
    users: list
    tracer: Any = None
    #: The scenario's sizing record, where it has one (overload).
    config: Any = None


def attach_tracer(internet, *browsers):
    """One tracer across every browser stack, the revocation service
    and the fast path of a world; returns it. Tracing is inert, so the
    measured PLTs are bit-identical with and without it."""
    from repro.obs.spans import Tracer

    tracer = Tracer(internet.loop)
    for browser in browsers:
        browser.attach_tracer(tracer)
    internet.revocations.tracer = tracer
    if internet.fastpath is not None:
        internet.fastpath.tracer = tracer
    return tracer


def observe_world(world: "World | Crowd"):
    """What ``world`` did so far, as one metrics registry: every
    component's counts, its links, and (when traced) its spans — the
    snapshot the batteries' samples, the obs artifacts and the feedback
    panel all read (:func:`repro.obs.metrics.observe`)."""
    from repro.obs.metrics import observe

    browsers = [world.browser] if isinstance(world, World) \
        else [user[1] for user in world.users]
    return observe(world.internet, browsers,
                   world.tracer.spans if world.tracer is not None else ())


def traced_artifact(entry: Battery, cell: tuple | None = None,
                    seed: int | None = None, **params) -> dict:
    """The obs artifact of one traced load of ``entry`` (its declared
    ``traced_cell`` and base seed unless told otherwise) — what both
    ``run_all --obs`` and ``python -m repro.obs trace`` write."""
    from repro.obs.export import build_artifact

    cell = entry.traced_cell if cell is None else cell
    seed = entry.base_seed if seed is None else seed
    world, result = entry.traced(*cell, seed=seed, **params)
    return build_artifact(
        world.tracer, observe_world(world),
        label="/".join((entry.name, *cell, f"seed{seed}")),
        extra={"plt_ms": result.plt_ms, "seed": seed})


def load_page(world: World):
    """Run the world's page load to completion; returns its result."""
    return world.internet.loop.run_process(world.browser.load(world.page))
