"""A/B harness for the hybrid-fidelity fast path.

Measures, per figure condition, how closely the flow-level fast path
(:mod:`repro.simnet.fastpath`) reproduces the packet-level oracle, and
what it saves. Both arms run the *same* trial function over the same
seeds; only the ``REPRO_FASTPATH`` knob differs (the knob is read at
world construction, so no module juggling is needed).

The comparison is **paired and noise-free**: host jitter is zeroed in
both arms, so every trial is deterministic and the per-seed relative
error measures the analytic model itself, not jitter noise. On these
fault-free conditions the documented contract
(:data:`repro.simnet.fastpath.PLT_ERROR_BOUND`, 1 %) must hold for
every seed of every condition — ``--selftest`` asserts exactly that,
plus that two oracle passes are bit-identical (the fast path draws
nothing from the world RNG, so disabling it is side-effect-free).

With jitter enabled the fast path replaces random draws with their
expected values, so *per-seed* PLTs differ by design while distribution
medians track within sampling error; the harness reports that drift
informationally (``--jittered``), it is not part of the bound.

**Contended cells.** Next to the figure conditions run three worlds in
which flows share transmitters — where the fast path queues analytic
bursts FIFO behind whatever holds a hop instead of replaying packets:
one 60-user city (the ``bench`` workload's world; jitter-free by
construction) and the two arms of the 78-user flash crowd, each drained
once per arm of the knob over identical inputs. Here the contract is
at *distribution* level. Per-load error cannot be: which of a page's
parallel fetches finishes first decides which pooled connection, with
which congestion window, the next fetch gets, so a sub-millisecond
reordering moves one load by a whole RTT (the parent already differed
from the oracle by > 1 % on 85 of the city's 254 loads while its mean
differed by 0.03 %); per-load median and p95 error are printed as
information. The gates:

* city: ``|mean|`` within :data:`PLT_ERROR_BOUND` (1 %) and p50, p95,
  p99 each within :data:`CITY_QUANTILE_BOUND` (2 % — a quantile of 254
  loads is one load's value, so it inherits those discrete flips);
* overload arms: ``|mean|`` of the successful loads within
  :data:`OVERLOAD_MEAN_BOUND` (3 %) and the number of successful loads
  within :data:`OVERLOAD_OK_LOADS` (± 5 of 78). The wider bound is the
  retry storm's, not the model's taste: a load there ends on a 1.2 s
  timeout ladder, so a fetch that lands 1 % sooner can finish a load a
  whole retry earlier. Over 32 seeds the protections-off mean moves by
  a median −1.4 % (mean −3.5 %, mean ``|error|`` 4.6 %, 17 seeds inside
  the bound) and the protections-on mean by −0.1 % (mean +0.7 %,
  ``|error|`` 1.4 %, 27 inside). The gate pins the battery's own base
  seed (−0.2 % on, −0.5 % off), which is deterministic — a regression
  check, not a claim about every seed.

Figure cells, their seeds and the city's and the crowd's seeds are read
from the batteries' declarations, so the A/B run exercises the exact
worlds the figures are generated from.

Usage::

    python -m repro.experiments fastpath-ab [--selftest] [--trials N]
    python -m repro.experiments fastpath-ab --jittered

Exit status 1 when any condition or contended cell exceeds its bound.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.experiments import local_setup, overload, population, remote_setup
from repro.experiments.harness import Battery
from repro.experiments.population import percentile
from repro.internet.knobs import forced
from repro.workload.arrivals import ArrivalCurve
from repro.simnet.fastpath import FASTPATH_ENV, PLT_ERROR_BOUND

#: Contended-cell gates (see the module docstring for why each is what
#: it is): the city's p50/p95/p99, the overload arms' mean over
#: successful loads, and how many loads may succeed in one arm of the
#: knob and not the other.
CITY_QUANTILE_BOUND = 0.02
OVERLOAD_MEAN_BOUND = 0.03
OVERLOAD_OK_LOADS = 5


@dataclass(frozen=True)
class ConditionReport:
    """Paired A/B outcome of one figure condition."""

    figure: str
    condition: str
    oracle_plts: tuple[float, ...]
    fastpath_plts: tuple[float, ...]
    oracle_s: float
    fastpath_s: float

    @property
    def max_rel_error(self) -> float:
        """Worst per-seed |fast - oracle| / oracle over the condition."""
        return max((abs(f - o) / o for o, f
                    in zip(self.oracle_plts, self.fastpath_plts)),
                   default=0.0)

    @property
    def speedup(self) -> float:
        """Oracle wall-clock over fast-path wall-clock."""
        return self.oracle_s / self.fastpath_s if self.fastpath_s else 0.0

    @property
    def within_bound(self) -> bool:
        """Does every seed meet the documented PLT error bound?"""
        return self.max_rel_error <= PLT_ERROR_BOUND


@dataclass(frozen=True)
class ContendedReport:
    """Distribution-level A/B outcome of one contended world."""

    name: str
    #: Per load, in the world's own order: ``(PLT ms, failed)``.
    oracle_loads: tuple[tuple[float, bool], ...]
    fastpath_loads: tuple[tuple[float, bool], ...]
    mean_bound: float
    #: ``None``: quantiles are reported, not gated.
    quantile_bound: float | None
    #: How many loads may succeed in one arm of the knob and not the other.
    ok_loads_bound: int
    oracle_s: float
    fastpath_s: float

    @functools.cached_property
    def ok_plts(self) -> tuple[list[float], list[float]]:
        """Ascending PLTs of the successful loads: (oracle, fast path)."""
        return tuple(sorted(plt for plt, failed in loads if not failed)
                     for loads in (self.oracle_loads, self.fastpath_loads))

    @property
    def ok_loads(self) -> tuple[int, int]:
        """Successful loads: (oracle, fast path)."""
        oracle, fast = self.ok_plts
        return len(oracle), len(fast)

    @property
    def mean_error(self) -> float:
        """Signed relative error of the mean PLT of successful loads."""
        oracle, fast = self.ok_plts
        return statistics.fmean(fast) / statistics.fmean(oracle) - 1.0

    def quantile_errors(self) -> dict[str, float]:
        """Signed relative error of p50 / p95 / p99."""
        oracle, fast = self.ok_plts
        return {f"p{round(q * 100)}":
                percentile(fast, q) / percentile(oracle, q) - 1.0
                for q in (0.50, 0.95, 0.99)}

    def per_load_errors(self) -> tuple[float, float]:
        """(median, p95) of ``|fast - oracle| / oracle`` over the loads
        that succeeded in both arms — information, not a gate."""
        errors = sorted(abs(fast - oracle) / oracle
                        for (oracle, failed_o), (fast, failed_f)
                        in zip(self.oracle_loads, self.fastpath_loads)
                        if not failed_o and not failed_f)
        return percentile(errors, 0.50), percentile(errors, 0.95)

    @property
    def speedup(self) -> float:
        return self.oracle_s / self.fastpath_s if self.fastpath_s else 0.0

    @property
    def within_bound(self) -> bool:
        oracle_ok, fast_ok = self.ok_loads
        if abs(fast_ok - oracle_ok) > self.ok_loads_bound:
            return False
        if abs(self.mean_error) > self.mean_bound:
            return False
        return self.quantile_bound is None or all(
            abs(error) <= self.quantile_bound
            for error in self.quantile_errors().values())

    def render(self) -> str:
        oracle_ok, fast_ok = self.ok_loads
        quantiles = " ".join(f"{name}={error * 100:+.2f}%" for name, error
                             in self.quantile_errors().items())
        median, p95 = self.per_load_errors()
        gates = f"|mean|<={self.mean_bound:.0%}"
        if self.quantile_bound is not None:
            gates += f" |p50,p95,p99|<={self.quantile_bound:.0%}"
        if self.ok_loads_bound:
            gates += f" ok+-{self.ok_loads_bound}"
        flag = "" if self.within_bound else "  << EXCEEDS BOUND"
        return (f"{self.name:<16} ok={oracle_ok}->{fast_ok}"
                f"/{len(self.oracle_loads)}  "
                f"mean={self.mean_error * 100:+.2f}% {quantiles}  "
                f"per-load median={median * 100:.2f}% p95={p95 * 100:.2f}%  "
                f"speedup={self.speedup:5.2f}x  [{gates}]{flag}")


@dataclass
class AbReport:
    """The whole A/B run."""

    conditions: list[ConditionReport] = field(default_factory=list)
    contended: list[ContendedReport] = field(default_factory=list)
    oracle_repeatable: bool = True
    #: :func:`jittered_median_drift` rows (``--jittered``; information).
    drift: list[tuple[str, str, float, float, float]] = field(
        default_factory=list)

    @property
    def within_bound(self) -> bool:
        return self.oracle_repeatable and all(
            c.within_bound for c in self.conditions + self.contended)

    @property
    def speedup(self) -> float:
        oracle = sum(c.oracle_s for c in self.conditions)
        fast = sum(c.fastpath_s for c in self.conditions)
        return oracle / fast if fast else 0.0

    def render(self) -> str:
        lines = ["== fastpath A/B (paired, jitter-free) =="]
        for c in self.conditions:
            flag = "" if c.within_bound else "  << EXCEEDS BOUND"
            lines.append(
                f"fig{c.figure}  {c.condition:<28} "
                f"max_err={c.max_rel_error * 100:7.4f}%  "
                f"speedup={c.speedup:5.2f}x{flag}")
        if self.contended:
            lines.append("-- contended (distribution level, fast path vs "
                         "oracle over identical inputs) --")
            lines.extend(cell.render() for cell in self.contended)
        lines.append(
            f"overall: figure speedup {self.speedup:.2f}x, per-seed bound "
            f"{PLT_ERROR_BOUND:.0%}, oracle repeatable: "
            f"{self.oracle_repeatable}, "
            f"{'PASS' if self.within_bound else 'FAIL'}")
        if self.drift:
            lines.append("== jittered median drift (informational) ==")
            lines.extend(
                f"fig{figure}  {condition:<28} oracle={om:9.3f} "
                f"fast={fm:9.3f} drift={drift * 100:6.3f}%"
                for figure, condition, om, fm, drift in self.drift)
        return "\n".join(lines)


def _with_fastpath(enabled: bool, fn: Callable[[], Any]) -> Any:
    """Run ``fn`` with the ``REPRO_FASTPATH`` knob forced."""
    with forced(FASTPATH_ENV, enabled):
        return fn()


def _figure_trials(trials: int, jitter: bool
                   ) -> list[tuple[str, str, Callable[[int], float],
                                   range]]:
    """(figure, condition, trial_fn, seeds) for every figure condition,
    each from its battery's own base seed."""
    out: list = []
    for battery, calibration in (
            (local_setup.FIGURE3, local_setup.DEFAULT_CALIBRATION),
            (remote_setup.FIGURE5, remote_setup.DEFAULT_REMOTE_CALIBRATION),
            (remote_setup.FIGURE6, remote_setup.DEFAULT_REMOTE_CALIBRATION)):
        if not jitter:
            calibration = dataclasses.replace(calibration,
                                              host_jitter_ms=0.0)
        seeds = range(battery.base_seed, battery.base_seed + trials)
        for cell in battery.cells:
            out.append((battery.name.removeprefix("figure"), cell[-1],
                        functools.partial(battery.trial, *cell,
                                          calibration=calibration), seeds))
    return out


def _city_loads() -> list[tuple[float, bool]]:
    """One drained 60-user city (the ``bench`` workload's world)."""
    world = population.build_population_world(
        "opportunistic-SCION", population.POPULATION.base_seed, users=60,
        sites=40, arrival=ArrivalCurve(window_ms=10_000.0))
    processes = population.start_sessions(world)
    world.internet.run()
    return [(row[2], row[3]) for row in population.harvest_rows(processes)]


def _overload_loads(arm: str) -> list[tuple[float, bool]]:
    """One drained arm of the default 78-user flash crowd."""
    _world, rows = overload.drain_arm(arm, overload.OVERLOAD.base_seed)
    return [(row[2], row[3]) for row in rows]


def run_contended() -> list[ContendedReport]:
    """The contended cells: a city and both overload arms, each drained
    with the fast path off and on."""
    cells = [("city 60x40", _city_loads, PLT_ERROR_BOUND,
              CITY_QUANTILE_BOUND, 0)]
    cells += [(arm, functools.partial(_overload_loads, arm),
               OVERLOAD_MEAN_BOUND, None, OVERLOAD_OK_LOADS)
              for arm in overload.ARMS]
    reports = []
    for name, drain, mean_bound, quantile_bound, ok_loads_bound in cells:
        loads, seconds = {}, {}
        for enabled in (False, True):
            started = time.perf_counter()
            loads[enabled] = tuple(_with_fastpath(enabled, drain))
            seconds[enabled] = time.perf_counter() - started
        reports.append(ContendedReport(
            name=name, oracle_loads=loads[False], fastpath_loads=loads[True],
            mean_bound=mean_bound, quantile_bound=quantile_bound,
            ok_loads_bound=ok_loads_bound,
            oracle_s=seconds[False], fastpath_s=seconds[True]))
    return reports


def run_ab(trials: int = 3, jitter: bool = False,
           check_repeatable: bool = True,
           contended: bool = False) -> AbReport:
    """Run the paired A/B battery over every figure condition.

    ``jitter=False`` (the default) zeroes host jitter so the comparison
    is exact-paired; ``check_repeatable`` re-runs the first oracle
    condition and asserts bit-identical samples (the
    ``REPRO_FASTPATH=0`` determinism contract); ``contended`` adds the
    distribution-level cells of :func:`run_contended`.
    """
    report = AbReport()
    if contended:
        report.contended = run_contended()
    for index, (figure, condition, trial, seeds) in enumerate(
            _figure_trials(trials, jitter)):

        def pass_over(enabled: bool) -> tuple[list[float], float]:
            def run() -> list[float]:
                return [trial(seed) for seed in seeds]
            started = time.perf_counter()
            samples = _with_fastpath(enabled, run)
            return samples, time.perf_counter() - started

        oracle, oracle_s = pass_over(False)
        fast, fast_s = pass_over(True)
        report.conditions.append(ConditionReport(
            figure=figure, condition=condition,
            oracle_plts=tuple(oracle), fastpath_plts=tuple(fast),
            oracle_s=oracle_s, fastpath_s=fast_s))
        if check_repeatable and index == 0:
            again, _ = pass_over(False)
            report.oracle_repeatable = again == oracle
    return report


def jittered_median_drift(trials: int = 30) -> list[tuple[str, str, float,
                                                          float, float]]:
    """Median PLT drift per condition with host jitter *enabled*.

    Returns ``(figure, condition, oracle_median, fastpath_median,
    rel_drift)`` rows — informational: with jitter on, the fast path
    collapses noise to its expected value, so medians track within
    sampling error of the median estimator rather than a hard bound.
    """
    rows = []
    for figure, condition, trial, seeds in _figure_trials(trials, True):
        oracle = _with_fastpath(False, lambda: [trial(s) for s in seeds])
        fast = _with_fastpath(True, lambda: [trial(s) for s in seeds])
        om = statistics.median(oracle)
        fm = statistics.median(fast)
        rows.append((figure, condition, om, fm,
                     abs(fm - om) / om if om else 0.0))
    return rows


def _assemble(trials: int, jittered: bool = False) -> AbReport:
    report = run_ab(trials=trials, contended=True)
    if jittered:
        report.drift = jittered_median_drift(trials=max(trials, 20))
    return report


#: The A/B run as a registry entry (``trials``: seeds per condition).
FASTPATH_AB = Battery(
    name="fastpath-ab", label="Fast-path A/B",
    title="Fast-path A/B — hybrid fidelity vs. packet-level oracle",
    holds=lambda report: report.within_bound, assemble=_assemble, trials=5,
    options=(("jittered", bool, "also report informational median drift "
                                "with host jitter enabled"),),
    selftest={"trials": 2},
)
