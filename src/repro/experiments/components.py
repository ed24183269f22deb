"""Component ablation harness: leave-one-out importance + contracts.

Every optional subsystem this repo has grown — the hybrid-fidelity fast
path, revocation dissemination, the proxy's circuit breakers, tracing,
admission control in the shared path services, the proxy's per-client
retry budget — is registered here as a :class:`Component` with three
declarative facts:

* **its toggle** — the ``REPRO_*`` environment knob (or, for tracing,
  the ``obs=`` kwarg) that switches it, resolved by the uniform rules in
  :mod:`repro.internet.knobs`;
* **its correctness contract** — ``bit_identical`` (flipping the toggle
  must not change a single sample of the fault-free Figure 3 slice) or
  ``statistically_equivalent`` (the fast path: jitter-free per-seed PLT
  within :data:`~repro.simnet.fastpath.PLT_ERROR_BOUND`);
* **the metrics it is expected to move** — PLT, TTR, events/sec, trial
  wall-clock — measured on the battery where the component matters
  (the Figure 3 slice, or the resilience battery for the
  failure-handling components).

:func:`run_ablations` then auto-generates one baseline run plus one
leave-one-out run per component, computes per-component importance
deltas (with p50/p95 spread of the per-seed paired deltas), verifies
every contract *exactly*, and collects in-process **evidence** that each
toggle actually took effect (``internet.fastpath is None``, a tracer
attached, a breaker board stayed inert, …) so an ablation can never
silently measure the wrong thing. Components whose off-run raises are
reported as ``error`` rows at the top of the ranking instead of being
dropped.

Toggles are applied *inside* the trial (:func:`pinned_trial`, via
:func:`repro.internet.knobs.forced_many`), so serial and worker-pool
runs see identical environments and stay bit-identical — the
parametrized differential tests pin that. Batteries run sequentially
with ``workers=1`` so per-run wall-clock deltas are honest.

Usage::

    python -m repro.experiments components --selftest      # CI gate, <10 s
    python -m repro.experiments components [--trials N] [--json PATH]
    python -m repro.experiments.run_all --ablate           # full battery

Exit status 1 when any contract fails or any component run errors.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import time
from dataclasses import dataclass, field

from repro.core.skip.breaker import BREAKER_ENV
from repro.core.skip.retry_budget import RETRY_BUDGET_ENV
from repro.experiments import local_setup
from repro.experiments.harness import Battery, run_samples
from repro.experiments.local_setup import FIGURE3
from repro.experiments.overload import OVERLOAD
from repro.experiments.population import percentile
from repro.experiments.resilience_battery import RESILIENCE, SESSION_LOADS
from repro.internet.knobs import forced_many
from repro.scion.admission import ADMISSION_ENV
from repro.scion.revocation import REVOCATION_ENV
from repro.simnet.fastpath import FASTPATH_ENV, PLT_ERROR_BOUND

#: Contract kinds.
BIT_IDENTICAL = "bit_identical"
STATISTICALLY_EQUIVALENT = "statistically_equivalent"


@dataclass(frozen=True)
class Component:
    """One toggleable feature and the facts the harness needs about it.

    Attributes:
        name: stable identifier (report/JSON key).
        knob: the ``REPRO_*`` environment variable switching it, or
            ``None`` when the toggle is a build kwarg (tracing's
            ``obs=``).
        contract: what disabling promises — :data:`BIT_IDENTICAL` or
            :data:`STATISTICALLY_EQUIVALENT` — always stated against
            the fault-free Figure 3 slice.
        battery: where importance is measured — the :class:`Battery`
            (``FIGURE3``, ``RESILIENCE`` or ``OVERLOAD``) in which
            the component has work to do (the failure-handling
            components only matter under churn, the overload
            protections only under a flash crowd).
        metrics: run-level metrics this component is expected to move;
            the ranking score is the largest of their deltas.
        default_on: the component's default state; the leave-one-out
            run flips it (tracing defaults *off*, so its ablation turns
            it on and measures the overhead).
        context: extra knob pins for the *importance* measurement only,
            applied to both the context baseline and the off-run. The
            circuit breaker uses this to pin revocation off: with
            dissemination on, failures never reach the proxy, so a
            plain leave-one-out would report zero importance for a
            component that only acts under discovery-led recovery.
            Contracts are always verified without context.
        description: one line for the report.
    """

    name: str
    knob: str | None
    contract: str
    battery: Battery
    metrics: tuple[str, ...]
    default_on: bool = True
    context: tuple[tuple[str, bool], ...] = ()
    description: str = ""

    @property
    def ablated_state(self) -> bool:
        """The non-default state the leave-one-out run pins."""
        return not self.default_on


#: The registry: every toggleable component, in rough dependency order.
COMPONENTS: tuple[Component, ...] = (
    Component(
        name="fastpath", knob=FASTPATH_ENV,
        contract=STATISTICALLY_EQUIVALENT, battery=FIGURE3,
        metrics=("plt_ms", "events_per_s", "wallclock_ms"),
        description="hybrid-fidelity analytic transfers over the "
                    "packet-level oracle"),
    Component(
        name="tracing", knob=None,
        contract=BIT_IDENTICAL, battery=FIGURE3,
        metrics=("wallclock_ms",), default_on=False,
        description="cross-layer span/metrics tracing (obs=True)"),
    Component(
        name="revocation", knob=REVOCATION_ENV,
        contract=BIT_IDENTICAL, battery=RESILIENCE,
        metrics=("ttr_ms", "plt_ms", "failed_requests"),
        description="SCMP-style network-wide revocation dissemination"),
    Component(
        name="circuit_breaker", knob=BREAKER_ENV,
        contract=BIT_IDENTICAL, battery=RESILIENCE,
        metrics=("ttr_ms", "plt_ms", "failed_requests"),
        context=((REVOCATION_ENV, False),),
        description="per-path circuit breakers in the SKIP proxy"),
    Component(
        name="admission_control", knob=ADMISSION_ENV,
        contract=BIT_IDENTICAL, battery=OVERLOAD,
        metrics=("goodput_ratio", "retry_amplification", "drain_ms",
                 "shed_fraction"),
        description="bounded queues + load shedding in the shared "
                    "path daemon/server (only acts under overload)"),
    Component(
        name="retry_budget", knob=RETRY_BUDGET_ENV,
        contract=BIT_IDENTICAL, battery=OVERLOAD,
        metrics=("goodput_ratio", "retry_amplification", "drain_ms"),
        description="per-client retry token bucket + seeded backoff "
                    "jitter in the SKIP proxy"),
)


def component(name: str) -> Component:
    """Look up a registered component by name."""
    for comp in COMPONENTS:
        if comp.name == name:
            return comp
    raise KeyError(f"unknown component {name!r}")


def default_knob_states(components: tuple[Component, ...] = COMPONENTS
                        ) -> dict[str, bool]:
    """Every registered env knob pinned to its default.

    Both the baseline and each leave-one-out run pin *all* knobs, so
    the harness measures the registry's defaults — not whatever
    ``REPRO_*`` happens to be set in the ambient environment.
    """
    return {comp.knob: comp.default_on
            for comp in components if comp.knob is not None}


# -- the trial wrapper (module-level: the worker pool pickles it) ----------


def pinned_trial(overrides: tuple[tuple[str, bool], ...], trial, *args,
                 **kwargs):
    """``trial(*args, **kwargs)`` under pinned knobs.

    The knobs are forced *inside* the trial so spawned pool workers see
    exactly the same environment as a serial run, and are restored
    afterwards (the shared pool's workers persist across batteries).
    """
    with forced_many(dict(overrides)):
        return trial(*args, **kwargs)


# -- configuration ---------------------------------------------------------


@dataclass(frozen=True)
class AblationConfig:
    """Sizing of one ablation sweep.

    Figure 3 and resilience runs start from those batteries' own base
    seeds; the flash crowd gets seeds of its own, off the battery's
    recorded ones. ``workers`` defaults to 1: batteries run one at a
    time so each run's wall-clock (and hence every ``wallclock_ms``
    delta) is an honest single-stream measurement. Samples are
    bit-identical at any worker count — only the timing column gets
    noisier.
    """

    conditions: tuple[str, ...] = local_setup.FIGURE3_CONDITIONS
    trials: int = 8
    n_resources: int = local_setup.N_RESOURCES
    resilience_trials: int = 4
    resilience_loads: int = SESSION_LOADS
    overload_trials: int = 2
    overload_base_seed: int = 1300
    contract_trials: int = 2
    workers: int = 1

    def plan(self, battery: Battery, obs: bool = False
             ) -> tuple[list[tuple], range, dict]:
        """``(cells, seeds, trial parameters)`` of one scored run.

        Resilience runs one opportunistic session per seed with the
        world's revocation switch deferred to the pinned knobs
        (``None``), so the same cell serves every component; the flash
        crowd runs its protections-on arm, from which the leave-one-out
        run removes exactly one protection.
        """
        plans = {
            FIGURE3.name: (
                [(condition,) for condition in self.conditions],
                (FIGURE3.base_seed, self.trials),
                {"n_resources": self.n_resources, "obs": obs}),
            RESILIENCE.name: (
                [(None, "opportunistic")],
                (RESILIENCE.base_seed, self.resilience_trials),
                {"loads": self.resilience_loads}),
            OVERLOAD.name: (
                [("protections-on",)],
                (self.overload_base_seed, self.overload_trials), {}),
        }
        if battery.name not in plans:
            raise ValueError(f"no component is scored on {battery.name!r}")
        cells, (base_seed, trials), params = plans[battery.name]
        return cells, range(base_seed, base_seed + trials), params

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


#: The full sweep ``run_all --ablate`` uses, and the small slice the
#: CI gate finishes in seconds.
FULL_CONFIG = AblationConfig()
SELFTEST_CONFIG = AblationConfig(conditions=("SCION-only", "mixed SCION-IP"),
                                 trials=3, n_resources=6,
                                 resilience_trials=2, resilience_loads=3,
                                 overload_trials=1)


# -- battery runs ----------------------------------------------------------


@dataclass(frozen=True)
class BatteryRun:
    """One battery sweep under one knob assignment."""

    battery: Battery
    #: Flat sample tuples in deterministic submission order.
    samples: tuple[tuple[float, ...], ...]
    wallclock_ms: float
    #: Run-level metrics derived from the samples + wall-clock.
    metrics: dict[str, float]


def battery_label(battery: Battery,
                  context: tuple[tuple[str, bool], ...] = ()) -> str:
    """Display/baseline key for a battery under extra context pins."""
    if not context:
        return battery.name
    pins = ",".join(f"{name}={'1' if on else '0'}"
                    for name, on in context)
    return f"{battery.name}({pins})"


def _sweep(battery: Battery, overrides: dict[str, bool], cells, seeds,
           workers: int, **params) -> list[tuple[float, ...]]:
    """Rows of the battery's scored trial, cell by cell in seed order,
    every trial under the pinned ``overrides``."""
    pinned = tuple(sorted(overrides.items()))
    samples: list[tuple[float, ...]] = []
    for cell in cells:
        trial = functools.partial(
            pinned_trial, pinned, battery.score_trial or battery.trial,
            *cell, **params)
        samples.extend(run_samples(trial, seeds, workers=workers))
    return samples


def run_battery(battery: Battery, overrides: dict[str, bool],
                config: AblationConfig, obs: bool = False) -> BatteryRun:
    """Run one battery sweep under ``overrides``; deterministic samples."""
    cells, seeds, params = config.plan(battery, obs)
    # Collect now what earlier work left behind: ``run_all`` arrives
    # here with ~700k dead objects from its 1000-user worlds, and that
    # 1.5 s gen-2 pause otherwise lands inside whichever battery
    # happens to cross the allocation threshold, charged to its score.
    gc.collect()
    started = time.perf_counter()
    samples = _sweep(battery, overrides, cells, seeds, config.workers,
                     **params)
    wallclock_ms = (time.perf_counter() - started) * 1000.0
    metrics = {name: reduce(row[column] for row in samples)
               for column, (name, reduce) in enumerate(battery.reducers)}
    if "events_total" in metrics:
        metrics["events_per_s"] = (
            metrics["events_total"] / (wallclock_ms / 1000.0)
            if wallclock_ms else 0.0)
    metrics["wallclock_ms"] = wallclock_ms
    return BatteryRun(battery=battery, samples=tuple(samples),
                      wallclock_ms=wallclock_ms, metrics=metrics)


# -- importance ------------------------------------------------------------


def metric_deltas(base: dict[str, float], off: dict[str, float]
                  ) -> dict[str, dict[str, float | None]]:
    """Per-metric ``{base, off, delta_abs, delta_pct}`` rows.

    ``delta_pct`` is ``None`` when the baseline is zero (count metrics
    like ``failed_requests`` under a clean baseline) — consumers fall
    back to the absolute delta.
    """
    rows: dict[str, dict[str, float | None]] = {}
    for name, base_value in base.items():
        off_value = off.get(name)
        if off_value is None:
            continue
        delta_abs = off_value - base_value
        delta_pct = (delta_abs / base_value * 100.0) if base_value else None
        rows[name] = {"base": base_value, "off": off_value,
                      "delta_abs": delta_abs, "delta_pct": delta_pct}
    return rows


def sample_delta_spread(base: BatteryRun, off: BatteryRun
                        ) -> dict[str, float]:
    """p50/p95 of the per-seed paired deltas on the primary sample
    metric (PLT for Figure 3 runs, TTR for resilience runs)."""
    deltas = []
    for base_row, off_row in zip(base.samples, off.samples):
        if base_row[0]:
            deltas.append((off_row[0] - base_row[0]) / base_row[0] * 100.0)
    deltas.sort()
    return {"p50": percentile(deltas, 0.50),
            "p95": percentile(deltas, 0.95)}


def rank_score(comp: Component,
               deltas: dict[str, dict[str, float | None]]) -> float:
    """The largest movement among the component's declared metrics —
    percentage where defined, absolute for zero-baseline counts."""
    score = 0.0
    for name in comp.metrics:
        row = deltas.get(name)
        if row is None:
            continue
        value = row["delta_pct"]
        if value is None:
            value = row["delta_abs"]
        score = max(score, abs(float(value)))
    return score


# -- contracts -------------------------------------------------------------


def _contract_probe(overrides: dict[str, bool], config: AblationConfig,
                    obs: bool, jitter: bool) -> tuple:
    """The small fault-free Figure 3 slice contracts are stated on."""
    cells, seeds, params = config.plan(FIGURE3, obs)
    if not jitter:
        params["calibration"] = dataclasses.replace(
            local_setup.DEFAULT_CALIBRATION, host_jitter_ms=0.0)
    seeds = range(seeds.start, seeds.start + config.contract_trials)
    return tuple(_sweep(FIGURE3, overrides, cells, seeds, 1, **params))


def verify_contract(comp: Component, config: AblationConfig,
                    baseline_probe: tuple, baseline_probe_nojitter: tuple
                    ) -> tuple[bool, str]:
    """Exact-check the component's documented contract.

    ``bit_identical``: the toggled probe must equal the baseline probe
    sample-for-sample (PLT *and* event count). ``statistically_
    equivalent`` (the fast path): the jitter-free per-seed PLT relative
    error must stay within :data:`PLT_ERROR_BOUND`.
    """
    overrides = default_knob_states()
    if comp.knob is not None:
        overrides[comp.knob] = comp.ablated_state
    obs = comp.knob is None and comp.ablated_state
    if comp.contract == BIT_IDENTICAL:
        probe = _contract_probe(overrides, config, obs, jitter=True)
        if probe == baseline_probe:
            return True, (f"bit-identical over "
                          f"{len(probe)} fault-free figure-3 samples")
        mismatches = sum(1 for a, b in zip(baseline_probe, probe) if a != b)
        return False, (f"{mismatches}/{len(probe)} samples differ "
                       f"from baseline")
    if comp.contract == STATISTICALLY_EQUIVALENT:
        probe = _contract_probe(overrides, config, obs, jitter=False)
        worst = 0.0
        for base_row, off_row in zip(baseline_probe_nojitter, probe):
            if base_row[0]:
                worst = max(worst,
                            abs(off_row[0] - base_row[0]) / base_row[0])
        ok = worst <= PLT_ERROR_BOUND
        return ok, (f"max jitter-free PLT error {worst * 100:.4f}% "
                    f"(bound {PLT_ERROR_BOUND:.0%})")
    raise ValueError(f"unknown contract {comp.contract!r}")


# -- evidence probes -------------------------------------------------------


def _tiny_local_world(obs: bool = False):
    page = local_setup.make_page("SCION-only", 2, 0)
    return local_setup.build_local_world(page, 0, obs=obs)


def _evidence_fastpath() -> str:
    with forced_many({FASTPATH_ENV: False}):
        off = _tiny_local_world()
    with forced_many({FASTPATH_ENV: True}):
        on = _tiny_local_world()
    assert off.internet.fastpath is None, "fastpath built despite knob off"
    assert on.internet.fastpath is not None, "fastpath missing with knob on"
    return "internet.fastpath is None with the knob off"


def _evidence_tracing() -> str:
    off = _tiny_local_world(obs=False)
    on = _tiny_local_world(obs=True)
    assert off.tracer is None, "tracer attached despite obs=False"
    assert on.tracer is not None, "no tracer despite obs=True"
    return "world.tracer tracks the obs= toggle"


def _evidence_revocation() -> str:
    from repro.internet.build import Internet
    from repro.topology.defaults import remote_testbed

    topology, _ases = remote_testbed()
    with forced_many({REVOCATION_ENV: False}):
        off = Internet(topology, seed=0)
    with forced_many({REVOCATION_ENV: True}):
        on = Internet(topology, seed=0)
    assert not off.revocations.enabled, "revocation on despite knob off"
    assert on.revocations.enabled, "revocation off despite knob on"
    return "RevocationService.enabled tracks the knob"


def _evidence_circuit_breaker() -> str:
    with forced_many({BREAKER_ENV: False}):
        world = _tiny_local_world()
    breakers = world.browser.proxy.breakers
    assert not breakers.enabled, "breaker board on despite knob off"
    assert breakers.record_failure("fp", 0.0, 10.0) is None
    assert not breakers.blocked(1.0), "disabled board blocked a path"
    return "proxy.breakers inert (stores/blocks nothing) with knob off"


def _evidence_admission_control() -> str:
    from repro.scion.admission import AdmissionController

    class _Clock:
        now = 0.0

    with forced_many({ADMISSION_ENV: False}):
        off = AdmissionController(service="probe", clock=_Clock(),
                                  capacity_qps=1.0, max_queue_depth=0)
    with forced_many({ADMISSION_ENV: True}):
        on = AdmissionController(service="probe", clock=_Clock(),
                                 capacity_qps=1.0, max_queue_depth=0)
    for _ in range(5):
        assert off.admit(), "disabled controller shed a request"
    assert off.backlog() == 0 and off.stats.peak_backlog == 0, \
        "disabled controller kept backlog state"
    decisions = [on.admit() for _ in range(5)]
    assert decisions[0] and not all(decisions), \
        "enabled controller never shed a 5x-over-capacity burst"
    on.shed("rejected")
    assert on.stats.shed_total() == 1 and on.stats.peak_backlog > 0
    return "sheds a 5x-over-capacity burst with the knob on, never off"


def _evidence_retry_budget() -> str:
    from repro.core.skip.retry_budget import RetryBudget

    with forced_many({RETRY_BUDGET_ENV: False}):
        off = RetryBudget(name="probe")
    with forced_many({RETRY_BUDGET_ENV: True}):
        on = RetryBudget(name="probe", capacity=1.0, refill_per_sec=0.0)
    for _ in range(5):
        assert off.try_spend(0.0), "disabled budget refused a retry"
    assert off.spent_total == 0 and off.exhausted_total == 0, \
        "disabled budget kept token state"
    assert off.jittered_backoff(100.0) == 100.0, \
        "disabled budget jittered a backoff"
    assert on.try_spend(0.0) and not on.try_spend(0.0), \
        "capacity-1 bucket did not exhaust on the second retry"
    assert on.exhausted_total == 1
    assert 50.0 <= on.jittered_backoff(100.0) < 150.0, \
        "enabled backoff jitter outside [0.5, 1.5)x"
    return "capacity-1 bucket exhausts with the knob on, inert off"


#: component name → callable returning an evidence line (or raising).
EVIDENCE_PROBES = {
    "fastpath": _evidence_fastpath,
    "tracing": _evidence_tracing,
    "revocation": _evidence_revocation,
    "circuit_breaker": _evidence_circuit_breaker,
    "admission_control": _evidence_admission_control,
    "retry_budget": _evidence_retry_budget,
}


# -- the sweep -------------------------------------------------------------


@dataclass
class ComponentResult:
    """One component's ablation outcome."""

    component: Component
    status: str = "ok"
    error: str | None = None
    deltas: dict[str, dict[str, float | None]] = field(default_factory=dict)
    spread: dict[str, float] = field(default_factory=dict)
    score: float = 0.0
    contract_ok: bool | None = None
    contract_detail: str = ""
    evidence: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.component.name,
            "knob": self.component.knob,
            "contract": self.component.contract,
            "battery": battery_label(self.component.battery,
                                     self.component.context),
            "status": self.status,
            "error": self.error,
            "deltas": self.deltas,
            "spread": self.spread,
            "rank_score": self.score,
            "contract_ok": self.contract_ok,
            "contract_detail": self.contract_detail,
            "evidence": self.evidence,
        }


@dataclass
class AblationReport:
    """The whole sweep: baselines, per-component results, ranking."""

    config: AblationConfig
    baselines: dict[str, BatteryRun] = field(default_factory=dict)
    results: list[ComponentResult] = field(default_factory=list)
    #: Wall-clock of the whole sweep.
    elapsed_s: float = 0.0

    @property
    def ranked(self) -> list[ComponentResult]:
        """Error rows first (they demand attention), then by score."""
        return sorted(self.results,
                      key=lambda r: (0 if r.status == "error" else 1,
                                     -r.score))

    @property
    def contracts_ok(self) -> bool:
        return all(r.contract_ok for r in self.results
                   if r.status == "ok")

    @property
    def all_ok(self) -> bool:
        return self.contracts_ok and all(r.status == "ok"
                                         for r in self.results)

    def result(self, name: str) -> ComponentResult:
        for row in self.results:
            if row.component.name == name:
                return row
        raise KeyError(f"no result for component {name!r}")

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "baselines": {
                battery: {"metrics": run.metrics,
                          "wallclock_ms": run.wallclock_ms}
                for battery, run in self.baselines.items()},
            "components": [r.to_json() for r in self.ranked],
            "ranking": [r.component.name for r in self.ranked],
            "contracts_ok": self.contracts_ok,
            "all_ok": self.all_ok,
        }

    def render(self) -> str:
        lines = ["== component ablations — leave-one-out importance =="]
        lines.append(
            f"figure3[{', '.join(self.config.conditions)}] "
            f"trials={self.config.trials} "
            f"resources={self.config.n_resources}; resilience "
            f"trials={self.config.resilience_trials} "
            f"loads={self.config.resilience_loads}; "
            f"workers={self.config.workers}")
        for battery, run in self.baselines.items():
            summary = "  ".join(f"{name}={value:.2f}"
                                for name, value in run.metrics.items())
            lines.append(f"baseline {battery:<10} {summary}")
        lines.append("")
        for rank, row in enumerate(self.ranked, start=1):
            comp = row.component
            label = battery_label(comp.battery, comp.context)
            if row.status == "error":
                lines.append(f"{rank:>2}. {comp.name:<16} "
                             f"[{label}] ERROR: {row.error}")
                continue
            contract = "PASS" if row.contract_ok else "FAIL"
            moved = []
            for name in comp.metrics:
                delta = row.deltas.get(name)
                if delta is None:
                    continue
                if delta["delta_pct"] is not None:
                    moved.append(f"{name} {delta['delta_pct']:+.1f}%")
                else:
                    moved.append(f"{name} {delta['delta_abs']:+.1f}")
            lines.append(
                f"{rank:>2}. {comp.name:<16} [{label}] "
                f"score={row.score:8.1f}  contract={comp.contract}:"
                f"{contract}  {'  '.join(moved)}")
            lines.append(f"    spread p50={row.spread.get('p50', 0.0):+.2f}% "
                         f"p95={row.spread.get('p95', 0.0):+.2f}%  "
                         f"{row.evidence}")
        lines.append("")
        lines.append(
            "note: score is the largest movement among each component's "
            "declared metrics (percent where the baseline is nonzero, "
            "absolute otherwise); wall-clock deltas are honest only at "
            "workers=1; bit_identical contracts are exact sample "
            "comparisons on the fault-free figure-3 slice")
        lines.append(f"(sweep took {self.elapsed_s:.2f} s)")
        return "\n".join(lines)


def run_ablations(config: AblationConfig | None = None,
                  components: tuple[Component, ...] = COMPONENTS
                  ) -> AblationReport:
    """The sweep: baseline + one leave-one-out run per component.

    A component whose run raises becomes an ``error`` row — never
    silently dropped from the ranking (the failure mode this harness
    exists to surface).
    """
    config = config or FULL_CONFIG
    started = time.perf_counter()
    report = AblationReport(config=config)
    defaults = default_knob_states(components)

    needed = {(comp.battery, comp.context) for comp in components}
    for battery, context in sorted(
            needed, key=lambda item: (item[0].name, item[1])):
        # Untimed warm-up first: the very first run pays one-off costs
        # (imports, the initial snapshot build) that would otherwise be
        # charged to the baseline and poison every wall-clock delta.
        overrides = dict(defaults)
        overrides.update(dict(context))
        run_battery(battery, overrides, config)
        report.baselines[battery_label(battery, context)] = run_battery(
            battery, overrides, config)

    # Contract probes share one baseline per jitter mode.
    baseline_probe = _contract_probe(defaults, config, obs=False,
                                     jitter=True)
    needs_nojitter = any(comp.contract == STATISTICALLY_EQUIVALENT
                         for comp in components)
    baseline_probe_nojitter = (
        _contract_probe(defaults, config, obs=False, jitter=False)
        if needs_nojitter else ())

    for comp in components:
        row = ComponentResult(component=comp)
        report.results.append(row)
        try:
            probe = EVIDENCE_PROBES.get(comp.name)
            if probe is not None:
                row.evidence = probe()
            overrides = dict(defaults)
            overrides.update(dict(comp.context))
            if comp.knob is not None:
                overrides[comp.knob] = comp.ablated_state
            obs = comp.knob is None and comp.ablated_state
            off_run = run_battery(comp.battery, overrides, config, obs=obs)
            base_run = report.baselines[battery_label(comp.battery,
                                                      comp.context)]
            row.deltas = metric_deltas(base_run.metrics, off_run.metrics)
            row.spread = sample_delta_spread(base_run, off_run)
            row.score = rank_score(comp, row.deltas)
            row.contract_ok, row.contract_detail = verify_contract(
                comp, config, baseline_probe, baseline_probe_nojitter)
        except Exception as exc:  # noqa: BLE001 — error rows by design
            row.status = "error"
            row.error = f"{type(exc).__name__}: {exc}"
    report.elapsed_s = time.perf_counter() - started
    return report


def _assemble(trials: int, small: bool = False) -> AblationReport:
    return run_ablations(dataclasses.replace(
        SELFTEST_CONFIG if small else FULL_CONFIG, trials=trials))


#: The sweep as a registry entry (``trials``: figure-3 seeds per
#: condition); ``--selftest`` is the small slice.
SWEEP = Battery(
    name="components", label="Component ablations",
    title="Component ablations — leave-one-out importance",
    holds=lambda report: report.all_ok, assemble=_assemble,
    trials=FULL_CONFIG.trials, artifact="components.json",
    selftest={"trials": SELFTEST_CONFIG.trials, "small": True},
)
