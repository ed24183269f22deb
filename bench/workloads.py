"""The five workloads: inputs from ``--seed``, one repetition, checks.

Every workload drives the simulator through the same public functions
its users call (``make_page``/``build_local_world``, ``browser.load``,
``build_population_world``/``start_sessions``/``collect_sample``, …) and
wraps each call in a harness phase span: plan → build → run → collect.

A repetition is one pass over the workload's generated input. The
timed region repeats it (same input every time), so the simulated
results of all repetitions must be bit-identical — that is one of the
output checks — and wall-clock medians are taken over like with like.

What ``--seed`` moves. The three closed-loop workloads draw every page
and world seed from it (hundreds of independent loads average the draw
out). The two open-loop worlds cannot: a 60-user city's work swings
±18 % with the catalog draw and a flash crowd is chaotic (any
perturbation moves its event count by 10–30 %), which is wider than
any regression bound. So ``city`` pins the battery's own world seed and
lets ``--seed`` jitter the arrival window by ±3 % (a smooth change:
events move ~0.3 %), and ``flash_crowd`` pins its input entirely.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import time
from collections import defaultdict

from bench.harness import Spans
from repro.experiments import local_setup, overload, population, remote_setup
from repro.internet import snapshot
from repro.internet.knobs import forced, forced_many
from repro.simnet.fastpath import FASTPATH_ENV
from repro.workload.arrivals import ArrivalCurve

#: Trials a closed-loop workload loads before timing starts (and in
#: every set-up child).
WARMUP_TRIALS = 8


@dataclasses.dataclass
class Rep:
    """What one repetition produced."""

    wall_s: float = 0.0
    #: ``(cell, simulated PLT ms, PageLoadResult.failed)`` per load.
    loads: list = dataclasses.field(default_factory=list)
    #: Wall seconds per load (closed-loop workloads only).
    load_wall_s: list = dataclasses.field(default_factory=list)
    #: Loads that failed although the workload expects none to, plus
    #: trials that raised.
    failed: int = 0
    counters: dict = dataclasses.field(
        default_factory=lambda: defaultdict(int))
    #: ``flash_crowd`` only: the battery's own per-arm sample.
    arms: dict = dataclasses.field(default_factory=dict)

    def ok_plts(self) -> list[float]:
        return [plt for _cell, plt, failed in self.loads if not failed]

    def cell_means(self) -> dict[str, float]:
        sums: dict[str, list[float]] = defaultdict(list)
        for cell, plt, failed in self.loads:
            if not failed:
                sums[cell].append(plt)
        return {cell: sum(plts) / len(plts) for cell, plts in sums.items()}


def _http_clients(browser):
    """A browser's two HTTP clients. ``BraveBrowser`` has no public
    accessor for the direct one; the population battery reaches it the
    same way."""
    return (browser.proxy.client, browser._direct_engine.fetcher.client)


def tally(counters, internet, browsers) -> None:
    """Add one drained world's public stats to ``counters``."""
    counters["events"] += internet.loop.events_processed
    for name, value in internet.network.stats().items():
        counters[name] += value
    if internet.fastpath is not None:
        stats = internet.fastpath.stats
        counters["fp_transfers"] += stats.transfers
        counters["fp_fallbacks"] += sum(stats.fallbacks.values())
        counters["fp_demotions"] += stats.demotions
    counters["ps_lookups"] += internet.path_server.stats.total()
    admissions = [internet.path_server.admission]
    for host in internet.hosts.values():
        daemon = host.daemon
        if daemon is None:
            continue
        counters["daemon_queries"] += daemon.stats.queries
        counters["daemon_hits"] += daemon.stats.cache_hits
        if daemon.admission is not None:
            admissions.append(daemon.admission)
    for admission in admissions:
        counters["admitted"] += admission.stats.admitted
        counters["shed"] += admission.stats.shed_total()
        counters["peak_backlog"] = max(counters["peak_backlog"],
                                       admission.stats.peak_backlog)
    for browser in browsers:
        for client in _http_clients(browser):
            counters["connections_opened"] += client.stats.connections_opened
            counters["pool_waits"] += client.stats.pool_waits
            counters["http_timeouts"] += client.stats.timeouts
        for host_stats in browser.proxy.stats.hosts.values():
            counters["scion_requests"] += host_stats.scion_requests
            counters["ip_requests"] += host_stats.ip_requests


class Workload:
    """One named workload. Subclasses fill in the hooks."""

    name = ""
    #: ``closed``: the next load starts when the previous one completes.
    #: ``open``: arrivals follow the simulated clock regardless.
    loop = "closed"

    def plan(self, seed: int, scale: float):
        """The generated input, a pure function of ``(seed, scale)``."""
        raise NotImplementedError

    def warmup_inputs(self, inputs):
        """A small cut of ``inputs``: the first cold testbed build plus
        enough loads to fill the interpreter's caches."""
        raise NotImplementedError

    def _run(self, inputs, rep: Rep, spans: Spans) -> None:
        """Run ``inputs`` once, filling ``rep``."""
        raise NotImplementedError

    def shape_errors(self, rep: Rep) -> list[str]:
        """Violated output checks (empty when the outputs are right)."""
        raise NotImplementedError

    def repetition(self, inputs, spans: Spans) -> Rep:
        """One timed pass over ``inputs``, from an empty snapshot cache:
        every repetition then pays the same control-plane builds a
        battery over fresh seeds pays, whatever ran before it."""
        rep = Rep()
        snapshot.clear_cache()
        before = snapshot.stats.as_dict()
        started = time.perf_counter()
        self._run(inputs, rep, spans)
        rep.wall_s = time.perf_counter() - started
        cache = snapshot.stats.delta_since(before)
        rep.counters["snapshot_hits"] = cache["hits"]
        rep.counters["snapshot_misses"] = cache["misses"]
        return rep

    def warmup(self, inputs) -> None:
        """What ``setup_s`` times, in a fresh process (with the import
        of ``repro`` before it)."""
        self.repetition(self.warmup_inputs(inputs), Spans(False))


class ClosedLoop(Workload):
    """One client, a fresh world per page load."""

    #: Pinned for the whole repetition (``None`` = leave the default).
    fastpath: bool | None = None

    def trial(self, spec, spans):
        """Plan, build, run one load; returns
        ``(cell, PageLoadResult, internet, browser)``."""
        raise NotImplementedError

    def _load(self, spec, rep: Rep, spans) -> None:
        started = time.perf_counter()
        try:
            cell, result, internet, browser = self.trial(spec, spans)
        except Exception as error:  # a raised load is a failed load
            print(f"bench: {self.name} trial {spec!r} raised {error!r}",
                  file=sys.stderr)
            rep.loads.append((str(spec), float("nan"), True))
            rep.failed += 1
        else:
            with spans.span("collect"):
                rep.loads.append((cell, result.plt_ms, result.failed))
                rep.failed += bool(result.failed)
                tally(rep.counters, internet, [browser])
        rep.load_wall_s.append(time.perf_counter() - started)

    def _run(self, inputs, rep: Rep, spans: Spans) -> None:
        with forced_many({} if self.fastpath is None
                         else {FASTPATH_ENV: self.fastpath}):
            for index, spec in enumerate(inputs):
                with spans.span("trial", trial=str(index)):
                    self._load(spec, rep, spans)

    def warmup_inputs(self, inputs):
        return inputs[:WARMUP_TRIALS]


def _trial_seeds(stream: str, seed: int, count: int) -> list[int]:
    base = random.Random(f"bench:{stream}:{seed}").randrange(1, 1_000_000)
    return [base + offset for offset in range(count)]


class Fig3(ClosedLoop):
    """Figure 3: the four local conditions, 12 resources, paper
    calibration; seeds outer and conditions inner, the way ``run_all``
    shares each seed's control plane across the four conditions."""

    n_resources = 12

    def __init__(self, name: str, fastpath: bool,
                 seeds_per_rep: int) -> None:
        self.name = name
        self.fastpath = fastpath
        self.seeds_per_rep = seeds_per_rep

    def plan(self, seed: int, scale: float):
        count = max(2, round(self.seeds_per_rep * scale))
        # Both figure-3 workloads draw from one stream, so the oracle
        # runs a prefix of exactly the fast path's inputs.
        return [(condition, trial_seed)
                for trial_seed in _trial_seeds("fig3", seed, count)
                for condition in local_setup.FIGURE3_CONDITIONS]

    def trial(self, spec, spans, calibration=local_setup.DEFAULT_CALIBRATION):
        condition, seed = spec
        with spans.span("plan"):
            page = local_setup.make_page(condition, self.n_resources, seed)
        with spans.span("build"):
            world = local_setup.build_local_world(
                page, seed, calibration=calibration,
                extension_enabled=condition != "BGP/IP-only",
                strict=condition == "strict-SCION")
        with spans.span("run"):
            result = world.internet.loop.run_process(
                world.browser.load(world.page))
        return condition, result, world.internet, world.browser

    def shape_errors(self, rep: Rep) -> list[str]:
        means = rep.cell_means()
        if set(means) != set(local_setup.FIGURE3_CONDITIONS):
            return [f"{self.name}: a condition has no successful load"]
        scion, mixed = means["SCION-only"], means["mixed SCION-IP"]
        low = max(means["strict-SCION"], means["BGP/IP-only"])
        errors = []
        if min(scion, mixed) <= low:
            errors.append(f"{self.name}: Figure 3 shape broken {means}")
        if abs(scion - mixed) > 0.25 * max(scion, mixed):
            errors.append(f"{self.name}: SCION-only !~ mixed {means}")
        return errors


def fastpath_error_pct(seed: int) -> float:
    """Worst per-trial fast-path PLT error against the packet-level
    oracle, in percent, on a jitter-free paired subset (the first 40
    trials of the input; untimed)."""
    spans = Spans(False)
    fig3 = WORKLOADS["fig3_oracle"]
    calibration = dataclasses.replace(local_setup.DEFAULT_CALIBRATION,
                                      host_jitter_ms=0.0)
    worst = 0.0
    for spec in fig3.plan(seed, 1.0)[:40]:
        plts = []
        for fast in (False, True):
            with forced(FASTPATH_ENV, fast):
                plts.append(fig3.trial(spec, spans, calibration)[1].plt_ms)
        worst = max(worst, abs(plts[1] - plts[0]) / plts[0])
    return worst * 100.0


class Fig56(ClosedLoop):
    """Figures 5 and 6: fresh seven-AS worlds, far and near origin."""

    name = "fig56_remote"
    n_resources = 9
    seeds_per_rep = 8
    primaries = (remote_setup.FAR_ORIGIN, remote_setup.NEAR_ORIGIN)

    def plan(self, seed: int, scale: float):
        count = max(1, round(self.seeds_per_rep * scale))
        return [(primary, condition, trial_seed)
                for trial_seed in _trial_seeds("fig56", seed, count)
                for primary in self.primaries
                for condition in remote_setup.REMOTE_CONDITIONS]

    def trial(self, spec, spans):
        primary, condition, seed = spec
        with spans.span("plan"):
            page = remote_setup.make_remote_page(
                primary, multi_origin=condition.startswith("multiple"),
                n_resources=self.n_resources, seed=seed)
        with spans.span("build"):
            world = remote_setup.build_remote_world(
                page, seed, extension_enabled=condition.endswith("SCION"))
        with spans.span("run"):
            result = world.internet.loop.run_process(
                world.browser.load(world.page))
        return f"{primary}|{condition}", result, world.internet, world.browser

    def shape_errors(self, rep: Rep) -> list[str]:
        means = rep.cell_means()
        errors = []
        for variant in ("single origin", "multiple origins"):
            try:
                far_scion = means[f"{self.primaries[0]}|{variant} / SCION"]
                far_ip = means[f"{self.primaries[0]}|{variant} / IPv4-6"]
                near_scion = means[f"{self.primaries[1]}|{variant} / SCION"]
                near_ip = means[f"{self.primaries[1]}|{variant} / IPv4-6"]
            except KeyError:
                return [f"{self.name}: a cell has no successful load"]
            if not far_scion < far_ip:
                errors.append(f"{self.name}: Figure 5 shape broken "
                              f"({variant}: {far_scion} !< {far_ip})")
            if not near_scion > near_ip:
                errors.append(f"{self.name}: Figure 6 shape broken "
                              f"({variant}: {near_scion} !> {near_ip})")
        return errors


class City(Workload):
    """One opportunistic-SCION population world, run to quiescence."""

    name = "city"
    loop = "open"
    mode = "opportunistic-SCION"
    #: The population battery's own base seed (see the module docstring).
    world_seed = 900
    users = 60
    sites = 40

    def plan(self, seed: int, scale: float):
        jitter = random.Random(f"bench:city:{seed}").uniform(0.97, 1.03)
        return {"users": max(6, round(self.users * scale)),
                "arrival": ArrivalCurve(window_ms=10_000.0 * jitter)}

    def warmup_inputs(self, inputs):
        return {**inputs, "users": min(10, inputs["users"])}

    def _run(self, inputs, rep: Rep, spans: Spans) -> None:
        with spans.span("trial", trial="0"):
            with spans.span("plan"):
                users, arrival = inputs["users"], inputs["arrival"]
            with spans.span("build"):
                world = population.build_population_world(
                    self.mode, self.world_seed, users=users,
                    sites=self.sites, arrival=arrival)
            with spans.span("run"):
                processes = population.start_sessions(world)
                world.internet.run()
            with spans.span("collect"):
                rows = population.harvest_rows(processes)
                sample = population.collect_sample(world, self.mode, users,
                                                   rows)
                rep.loads = [("city", row[2], row[3]) for row in rows]
                rep.failed = sample.failed_loads
                tally(rep.counters, world.internet,
                      [browser for _id, browser, _plan, _at in world.users])

    def shape_errors(self, rep: Rep) -> list[str]:
        errors = []
        if not rep.loads:
            errors.append("city: no loads completed")
        if not rep.counters["daemon_hits"]:
            errors.append("city: daemon caches never hit")
        return errors


class FlashCrowd(Workload):
    """One protections-on and one protections-off overload trial.

    Loads that time out or are shed are this workload's *product*, not
    a malfunction: they are reported as ``sim.ok_load_share`` and are
    not counted in ``failed``, which here means a crowd member that
    never produced an outcome or a trial that raised.
    """

    name = "flash_crowd"
    loop = "open"
    #: The overload battery's own base seed (see the module docstring).
    world_seed = 1200
    off_knobs = {overload.ADMISSION_ENV: False,
                 overload.RETRY_BUDGET_ENV: False,
                 overload.BREAKER_ENV: False}

    def plan(self, seed: int, scale: float):
        del seed  # pinned input: see the module docstring
        # A smaller crowd gets proportionally thinner pipes, so it is
        # still a crowd (scale 1.0 is exactly the battery's config).
        config = overload.DEFAULT_CONFIG
        users = max(12, round(config.users * scale))
        thin = users / config.users
        return dataclasses.replace(
            config, users=users,
            detour_mbps=config.detour_mbps * thin,
            direct_mbps=config.direct_mbps * thin,
            admission_qps=config.admission_qps * thin)

    def warmup_inputs(self, inputs):
        return dataclasses.replace(inputs, users=min(20, inputs.users))

    def _arm(self, arm: str, config, rep: Rep, spans: Spans) -> None:
        knobs = self.off_knobs if arm == "protections-off" else {}
        with spans.span("trial", trial=arm), forced_many(knobs):
            with spans.span("build"):
                world = overload.build_overload_world(self.world_seed, config)
            with spans.span("run"):
                processes = overload.start_crowd(world)
                world.internet.run()
            with spans.span("collect"):
                rows = overload.harvest_rows(processes)
                rep.arms[arm] = overload.collect_sample(world, arm, rows)
                rep.loads += [(arm, row[2], row[3]) for row in rows]
                rep.failed += config.users - len(rows)
                tally(rep.counters, world.internet,
                      [browser for _id, browser, _page, _at in world.users])

    def _run(self, inputs, rep: Rep, spans: Spans) -> None:
        for arm in overload.ARMS:
            self._arm(arm, inputs, rep, spans)

    def shape_errors(self, rep: Rep) -> list[str]:
        on, off = (rep.arms[arm] for arm in overload.ARMS)
        errors = []
        if not off.retry_amplification > on.retry_amplification:
            errors.append("flash_crowd: protections-off does not amplify "
                          f"retries ({off.retry_amplification} vs "
                          f"{on.retry_amplification})")
        if off.requests_shed:
            errors.append("flash_crowd: protections-off shed requests")
        return errors


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Fig3("fig3_local", fastpath=True, seeds_per_rep=150),
        # Packet level: the reference the fast path is checked against.
        Fig3("fig3_oracle", fastpath=False, seeds_per_rep=40),
        Fig56(), City(), FlashCrowd())
}
