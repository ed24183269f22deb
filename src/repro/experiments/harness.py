"""What every experiment shares: trial running, box-plot statistics, the
:class:`Battery` record, the one result shape, and what a trial reads
off a built world (:mod:`repro.experiments.world` builds them).

The paper presents PLT distributions as box plots over repeated page
loads. :class:`BoxStats` captures exactly the quantities a box plot
shows (quartiles, whiskers as min/max, plus mean/std for the tables in
EXPERIMENTS.md); :func:`run_samples` runs one trial callable over a
battery of seeds, each trial in a completely fresh world, so trials are
independent and the whole battery is reproducible.

Every experiment since is the same arc — build a world from a seed, run
one trial per seed per cell, collect in seed order, summarise, judge a
shape — so each is declared once as a :class:`Battery` at the bottom of
the module that owns its trial, and :func:`submit` / :func:`run` are the
only way to execute one. ``python -m repro.experiments`` lists them.

A pooled battery summarises the same way every time, so it declares
*what* to summarise and nothing else: one :class:`Column` per figure of
a cell (the row field it reads, a reducer, a display format). Its
result is an :class:`ExperimentResult` — the raw rows per cell plus one
:class:`Cell` of figures each — which renders and serialises every
experiment, from Table 1's verdicts and a Figure 3 box plot (the
one-column case, :data:`PLT`) to the overload table.
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import math
import multiprocessing
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
# so its startup cost amortizes across the many cells a full `run_all`
# regeneration submits.

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

    Each call must build its own world from the seed — nothing may leak
    between trials (caches, pooled connections, HSTS state). The
    seed→trial mapping is positional and the pool preserves input
    order, so the returned samples are identical to a serial run no
    matter how trials interleave across workers. Falls back to serial
    execution for non-picklable trials (e.g. lambdas/closures) and when
    a worker pool breaks mid-battery.
    """
    return submit_samples(trial, seeds, workers=workers).collect()


def count(values) -> int:
    """A sum of counts, as an integer."""
    return int(sum(values))


def merge_counts(tallies) -> dict:
    """Key-wise sum of ``((key, count), …)`` tallies, sorted by key."""
    merged: dict = {}
    for tally in tallies:
        for key, value in tally:
            merged[key] = merged.get(key, 0) + value
    return dict(sorted(merged.items()))


def key_text(key: tuple) -> str:
    """A cell key as text: its parts joined by `` / ``."""
    return " / ".join(map(str, key))


@dataclass(frozen=True)
class Column:
    """One figure of a pooled battery's per-cell summary: ``reduce``
    folds what it reads of every trial's row — an index, an attribute
    name (by default its own), or the row itself when ``None``. A
    *derived* column computes ``derive(cell, trials, **params)`` from
    the figures before it instead; ``kept=False`` keeps it out of the
    cell's record and JSON.

    ``fmt`` shows the figure: a box plot as a row of its own labelled
    ``fmt.format(label=…)`` and ending in ``unit``, anything else as
    ``fmt.format_map(cell)`` on the cell's one line, under ``heading``
    in a table.
    """

    name: str
    read: int | str | None = ""
    reduce: Callable[[list], Any] = BoxStats.from_samples
    derive: Callable[..., Any] | None = None
    kept: bool = True
    fmt: str | None = None
    heading: str | None = None
    unit: str = "ms"

    def values(self, rows: list) -> list:
        """What this column reads of every row."""
        read = self.name if self.read == "" else self.read
        if read is None:
            return rows
        if isinstance(read, int):
            return [row[read] for row in rows]
        return [getattr(row, read) for row in rows]


#: The one column of a PLT-per-condition battery (Figures 3/5/6,
#: Ablation A): a box plot of the trials' PLTs, labelled by condition.
PLT = Column("plt", None, fmt="{label}")


class Cell(dict):
    """One cell's figures by column name, also read as attributes
    (``cell.plt.median``); a figure its column does not keep reads the
    same way but is not part of the record."""

    def __init__(self) -> None:
        super().__init__()
        self.shown: dict = {}

    def __missing__(self, name: str) -> Any:
        return self.__dict__["shown"][name]

    def __getattr__(self, name: str) -> Any:
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


@dataclass
class ExperimentResult:
    """What a pooled battery returns: its raw per-trial rows per cell,
    and one :class:`Cell` per cell derived from them by the battery's
    declared columns — the only result shape a pooled battery has."""

    battery: "Battery"
    #: ``cell key → [row, …]``, one row per trial in seed order.
    samples: dict[tuple, list]
    #: The trial parameters the battery ran with.
    params: dict = field(default_factory=dict)
    cells: dict[tuple, Cell] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.cells = {key: self._summarize(rows)
                      for key, rows in self.samples.items()}

    def _summarize(self, rows: list) -> Cell:
        cell = Cell()
        for column in self.battery.columns:
            if column.derive is not None:
                figure = column.derive(cell, len(rows), **self.params)
            else:
                figure = column.reduce(column.values(rows))
            (cell if column.kept else cell.shown)[column.name] = figure
        return cell

    @property
    def trials(self) -> int:
        """Trials per cell."""
        return next((len(rows) for rows in self.samples.values()), 0)

    @property
    def description(self) -> str:
        return self.battery.description(self.trials, **self.params)

    def cell(self, *key) -> Cell:
        """Look up one cell."""
        return self.cells[key]

    def median(self, condition: str) -> float:
        """A PLT battery's median under one condition (verdicts)."""
        return self.cells[(condition,)].plt.median

    def render(self) -> str:
        """The battery as text: box plots in rows of their own, the
        other shown figures on one line per cell (a table when the
        columns have headings)."""
        battery = self.battery
        name = battery.heading or battery.title
        shown = [column for column in battery.columns if column.fmt]
        header = " ".join(column.heading for column in shown
                          if column.heading)
        lines = ([name, "=" * len(name), self.description, "", header,
                  "-" * len(header)] if header
                 else [f"== {name} ==", self.description, ""])
        for key, cell in self.cells.items():
            label = battery.cell_label(key)
            boxes = [column for column in shown
                     if isinstance(cell[column.name], BoxStats)]
            lines += [cell[column.name].row(column.fmt.format(label=label),
                                            column.unit)
                      for column in boxes]
            line = [column.fmt.format_map(cell) for column in shown
                    if column not in boxes]
            if line:
                lines.append(" ".join([f"{'':<24}"] * bool(boxes) + line))
        if battery.footer is not None:
            lines += battery.footer(self)
        lines.append(f"note: {battery.note}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The machine-readable result; a one-column cell is recorded
        as its figure alone."""
        battery = self.battery
        cells = {key: cell if len(cell) > 1 else next(iter(cell.values()))
                 for key, cell in self.cells.items()}
        return {
            "name": battery.heading or battery.title,
            "description": self.description,
            **(battery.header(**self.params) if battery.header else {}),
            "trials": self.trials,
            battery.cells_key: to_json(cells),
            "samples": to_json(self.samples),
            "notes": [battery.note],
        }


# ---------------------------------------------------------------------------
# The battery record
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Battery:
    """One experiment, declared once (so compared by identity).

    ``run_all`` (summary row, report block, ``results/<artifact>``), the
    ``python -m repro.experiments <name>`` CLI, the component-ablation
    harness, the fast-path A/B and ``repro.obs trace`` all read this
    record instead of naming experiments. Every experiment of the
    report has ``cells``, a ``trial`` and ``columns``, and its result
    is an :class:`ExperimentResult`; the two harness tools, which run
    other batteries under pinned knobs or in paired arms, have none of
    them and do their work in ``assemble``. Every result renders
    itself (``result.render()``).
    """

    #: Registry / CLI name, and the row label and block title of the
    #: generated report.
    name: str
    label: str
    title: str
    #: The predicate deciding the summary row's "Holds" cell and the
    #: CLI's exit status.
    holds: Callable[[Any], bool]
    #: A harness tool's ``assemble(trials, **params)`` → its result.
    assemble: Callable[..., Any] | None = None
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
    #: The summary of an experiment: one :class:`Column` per figure of a
    #: cell, the block's heading (default: ``title``), its
    #: ``description(trials, **params)`` and expected-shape note, the
    #: JSON key of its cell map, extra top-level JSON fields
    #: ``header(**params)``, each cell's row label and the lines
    #: ``footer(result)`` adds under the cells.
    columns: tuple[Column, ...] = ()
    heading: str = ""
    description: Callable[..., str] | None = None
    note: str = ""
    cells_key: str = "conditions"
    header: Callable[..., dict] | None = None
    cell_label: Callable[[tuple], str] = key_text
    footer: Callable[[ExperimentResult], list[str]] | None = None


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
        if self.battery.assemble is not None:
            return self.battery.assemble(self._trials, **self._params)
        return ExperimentResult(
            self.battery,
            {cell: samples.collect() for cell, samples in self._cells},
            self._params)


def submit(battery: Battery, trials: int | None = None,
           workers: int | None = None, base_seed: int | None = None,
           cells: Sequence[tuple] | None = None, **params) -> Pending:
    """Start every cell of ``battery`` on the shared pool.

    ``trials`` / ``base_seed`` / ``cells`` default to the declaration
    (paper scale); ``params`` reach the trial and the result.
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
        return {key if isinstance(key, str) else key_text(key):
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
# Reading a world
# ---------------------------------------------------------------------------


def observe_world(world):
    """What ``world`` did so far, as one metrics registry: every
    component's counts, its links, and (when traced) its spans — the
    snapshot the batteries' samples, the obs artifacts and the feedback
    panel all read (:func:`repro.obs.metrics.observe`)."""
    from repro.obs.metrics import observe

    return observe(world.internet, [user[1] for user in world.users],
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


def load_page(world):
    """Run the world's page load to completion; returns its result."""
    return world.internet.loop.run_process(world.browser.load(world.page))
