"""The population battery: a city browses the distributed testbed.

Where every other battery loads a handful of pages from one client,
this one attaches a *population* of browsers to the client AS of the
seven-AS distributed testbed and drives them with the
:mod:`repro.workload` generators: a Zipf site catalog spread across the
far/near/CDN origins, per-user session plans with think time, tab
parallelism, and revisit locality, and an open-loop (or diurnal)
arrival curve. It then reports what the paper never could:

* p50/p95/p99 PLT per transport mode (instead of means over 12 trials),
* path-server QPS and per-user daemon cache hit rates under load,
* SKIP proxy HTTP connection-pool contention (queued requests and
  queued milliseconds),
* aggregate per-AS link utilization, the PR 5 gauge family.

Modes mirror the figure-3 conditions: ``opportunistic-SCION`` (the
extension routing what it can), ``strict-SCION``, and ``BGP/IP-only``
(extension disabled — the no-interception baseline).

Determinism: the workload is materialized from dedicated string-seeded
RNG streams before the world runs, every trial is a pure function of
its arguments, and samples are frozen dataclasses — so serial and
``REPRO_WORKERS=4`` batteries are bit-identical, and
``python -m repro.experiments population --selftest`` (run by tier 1)
checks exactly that plus leak-free interrupted runs. ``REPRO_FASTPATH`` applies unchanged because the battery builds
worlds through the ordinary :class:`~repro.internet.build.Internet`
facade.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter

from repro.experiments.harness import (Battery, Column, ExperimentResult,
                                       mean, merge_counts, observe_world)
from repro.experiments.remote_setup import ORIGINS, REMOTE_WORLD
from repro.experiments.world import Calibration, World, build
from repro.internet.knobs import resolve_int_knob
from repro.workload.arrivals import ArrivalCurve, arrival_times
from repro.workload.catalog import default_catalog
from repro.workload.session import DEFAULT_SESSION, SessionConfig, plan_session

#: Default population size for the full battery (``run_all
#: --population``); override with the knob or ``--users``.
USERS_ENV = "REPRO_POPULATION_USERS"
DEFAULT_USERS = 1000

#: Transport/mode conditions, in presentation order.
MODES = ("opportunistic-SCION", "strict-SCION", "BGP/IP-only")

#: Battery defaults kept deliberately small per user: population load
#: comes from user count, not page weight.
DEFAULT_SITES = 40
DEFAULT_ARRIVAL = ArrivalCurve(window_ms=10_000.0, shape="open-loop")


@dataclass(frozen=True)
class PopulationSample:
    """One trial's aggregate load report (bit-comparable)."""

    mode: str
    users: int
    loads: int
    failed_loads: int
    plt_p50_ms: float
    plt_p95_ms: float
    plt_p99_ms: float
    plt_mean_ms: float
    duration_ms: float
    path_server_lookups: int
    path_server_qps: float
    daemon_queries: int
    daemon_cache_hits: int
    daemon_cache_hit_rate: float
    pool_waits: int
    pool_wait_ms: float
    connections_opened: int
    scion_fetches: int
    events: int
    #: ``((isd_as, bytes_sent), …)`` sorted by AS — the per-AS
    #: utilization aggregate of the PR 5 gauge family.
    as_link_bytes: tuple[tuple[str, int], ...]


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolation percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    low = int(position)
    if low + 1 >= len(sorted_values):
        return float(sorted_values[-1])
    fraction = position - low
    return (sorted_values[low] * (1.0 - fraction)
            + sorted_values[low + 1] * fraction)


def resolve_users(override: int | None = None) -> int:
    """Population size: explicit override beats ``REPRO_POPULATION_USERS``."""
    return resolve_int_knob(USERS_ENV, override, DEFAULT_USERS, minimum=1)


#: The distributed testbed's origins with a browsing population. The
#: world is jitter-free: population tails should come from load, not
#: injected noise.
CITY_WORLD = replace(REMOTE_WORLD,
                     calibration=Calibration(dns_latency_ms=4.0,
                                             host_jitter_ms=0.0))


def build_population_world(mode: str, seed: int, users: int,
                           sites: int = DEFAULT_SITES,
                           arrival: ArrivalCurve = DEFAULT_ARRIVAL,
                           session: SessionConfig = DEFAULT_SESSION,
                           obs: bool = False) -> World:
    """A fresh city of ``users`` browsing a ``sites``-site catalog.
    Each user gets their own client host, daemon, and browser so
    per-user warmth is real."""
    catalog = default_catalog(sites, origins=tuple(o.name for o in ORIGINS),
                              seed=seed)
    arrivals = arrival_times(users, arrival, seed)
    return build(replace(
        CITY_WORLD, catalog=catalog,
        users=tuple((plan_session(catalog, user_id, seed, session),
                     arrivals[user_id]) for user_id in range(users)),
        extension=mode != "BGP/IP-only", strict=mode == "strict-SCION"),
        seed, obs=obs)


def _user_session(world: World, browser, plan, arrival_ms: float):
    """One user's driver process: arrive, browse the plan, think; one
    row per page load."""
    loop = world.internet.loop
    if loop.now < arrival_ms:
        yield loop.timeout(arrival_ms - loop.now)
    rows = []
    for visit in plan:
        started = loop.now
        if len(visit.sites) == 1:
            results = [(yield from browser.load(
                world.catalog.page_for(visit.sites[0])))]
        else:
            tabs = [loop.process(browser.load(world.catalog.page_for(index)),
                                 name="tab")
                    for index in visit.sites]
            yield loop.all_of(tabs)
            results = [tab.value for tab in tabs]
        for result in results:
            rows.append((started, loop.now, result.plt_ms, result.failed,
                         result.scion_count, result.shed_count,
                         result.retry_budget_exhausted_count))
        if visit.think_time_ms > 0:
            yield loop.timeout(visit.think_time_ms)
    return rows


def start_sessions(world: World) -> list:
    """Spawn every user's session as a loop process."""
    loop = world.internet.loop
    return [loop.process(_user_session(world, browser, plan, arrival_ms),
                         name=f"user-{user_id}")
            for user_id, browser, plan, arrival_ms in world.users]


def collect_sample(world: World, mode: str, users: int,
                   rows) -> PopulationSample:
    """Aggregate a drained world + harvested session rows into a sample."""
    internet = world.internet
    plts = sorted(row[2] for row in rows if not row[3])
    failed = sum(1 for row in rows if row[3])
    metrics = observe_world(world)
    daemon_queries = int(metrics.total("daemon_queries"))
    daemon_hits = int(metrics.total("daemon_cache_hits"))
    duration_ms = internet.loop.now
    lookups = internet.path_server.stats.total()
    sample = PopulationSample(
        mode=mode,
        users=users,
        loads=len(rows),
        failed_loads=failed,
        plt_p50_ms=percentile(plts, 0.50),
        plt_p95_ms=percentile(plts, 0.95),
        plt_p99_ms=percentile(plts, 0.99),
        plt_mean_ms=sum(plts) / len(plts) if plts else 0.0,
        duration_ms=duration_ms,
        path_server_lookups=lookups,
        path_server_qps=(lookups / (duration_ms / 1000.0)
                         if duration_ms else 0.0),
        daemon_queries=daemon_queries,
        daemon_cache_hits=daemon_hits,
        daemon_cache_hit_rate=(daemon_hits / daemon_queries
                               if daemon_queries else 0.0),
        pool_waits=int(metrics.total("http_pool_waits")),
        pool_wait_ms=metrics.total("http_pool_wait_ms"),
        connections_opened=int(metrics.total("http_connections_opened")),
        scion_fetches=sum(row[4] for row in rows),
        events=internet.loop.events_processed,
        as_link_bytes=tuple(
            (dict(labels)["isd_as"], int(sent)) for labels, sent
            in metrics.gauges_named("as_link_bytes").items()),
    )
    # The sample is the world's last read: close it, so it is freed by
    # reference counting once the caller lets go.
    world.close()
    return sample


def harvest_rows(processes) -> list:
    """Session results in user order; raises the first session error."""
    rows = []
    for process in processes:
        if process.exception is not None:
            raise process.exception
        rows.extend(process.value)
    return rows


def population_leak_report(world: World) -> list[str]:
    """Resource-leak audit of a drained (or interrupted) world.

    Returns human-readable violations; empty means quiescent. Covers
    what the chaos soak asserts, across *every* user: busy pooled
    streams, queued pool waiters, half-open connections, CPU tokens,
    open spans, and pending revocation work.
    """
    leaks = []
    for user_id, browser, _plan, _arrival in world.users:
        for label, client in (("proxy", browser.proxy.client),
                              ("direct", browser._direct_engine.fetcher.client)):
            for key, pool in client._pools.items():
                if pool.opening:
                    leaks.append(f"user-{user_id} {label} pool {key}: "
                                 f"{pool.opening} opening")
                if pool.waiters:
                    leaks.append(f"user-{user_id} {label} pool {key}: "
                                 f"{len(pool.waiters)} queued waiters")
                busy = sum(1 for conn in pool.connections if conn.busy)
                if busy:
                    leaks.append(f"user-{user_id} {label} pool {key}: "
                                 f"{busy} busy streams")
        if browser.extension.cpu.in_use:
            leaks.append(f"user-{user_id} extension cpu held")
        if browser.proxy.cpu.in_use:
            leaks.append(f"user-{user_id} proxy cpu held")
    if world.tracer is not None:
        open_spans = world.tracer.open_spans()
        if open_spans:
            leaks.append(f"{len(open_spans)} open spans: "
                         f"{[span.name for span in open_spans[:5]]}")
    revocations = world.internet.revocations
    if revocations.pending_propagations:
        leaks.append(f"{revocations.pending_propagations} revocation "
                     f"propagations in flight")
    return leaks


def population_trial(mode: str, seed: int, users: int = 100,
                     sites: int = DEFAULT_SITES,
                     arrival: ArrivalCurve = DEFAULT_ARRIVAL,
                     session: SessionConfig = DEFAULT_SESSION,
                     obs: bool = False) -> PopulationSample:
    """One population trial; a pure function of its arguments."""
    world = build_population_world(mode, seed, users=users, sites=sites,
                                   arrival=arrival, session=session, obs=obs)
    processes = start_sessions(world)
    world.internet.run()
    return collect_sample(world, mode, users, harvest_rows(processes))


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------


def _configure(users: int | None = None, sites: int = DEFAULT_SITES,
               **params) -> dict:
    """The city size is resolved once, in the submitting process."""
    return {"users": resolve_users(users), "sites": sites, **params}


def busiest_ases(result: ExperimentResult,
                 top: int = 3) -> list[tuple[str, int]]:
    """The ``top`` ASes by bytes on their adjacent links, all modes."""
    merged = merge_counts(cell.as_link_bytes.items()
                          for cell in result.cells.values())
    return sorted(merged.items(), key=lambda item: (-item[1], item[0]))[:top]


def _footer(result: ExperimentResult) -> list[str]:
    busiest = busiest_ases(result)
    if not busiest:
        return []
    return ["", "busiest ASes (bytes on adjacent links, all modes): "
            + ", ".join(f"{isd_as}={sent:,}" for isd_as, sent in busiest)]


def population_holds(result: ExperimentResult) -> bool:
    """Whether the population battery matched its expected shape: every
    mode completed loads without failures (the world is fault-free),
    and revisit locality kept the SCION modes' daemon caches warm."""
    for (mode,), samples in result.samples.items():
        if any(s.loads == 0 or s.failed_loads > 0 for s in samples):
            return False
        if mode != "BGP/IP-only" and \
                any(s.daemon_cache_hit_rate <= 0.0 for s in samples):
            return False
    return True


def _measured(result: ExperimentResult) -> str:
    """The table's own per-mode figures (means over trials)."""
    opportunistic = result.cell("opportunistic-SCION")
    baseline = result.cell("BGP/IP-only")
    return (f"{result.params['users']} users: p99 "
            f"{opportunistic.plt_p99_ms:.0f} ms opportunistic vs "
            f"{baseline.plt_p99_ms:.0f} ms BGP/IP-only; daemon hit rate "
            f"{opportunistic.daemon_cache_hit_rate:.0%}, path-server "
            f"{opportunistic.path_server_qps:.0f} qps")


# ---------------------------------------------------------------------------
# Selftest (``python -m repro.experiments population --selftest``)
# ---------------------------------------------------------------------------


def selftest(check) -> None:
    """Determinism + sanity + interrupted-run leak audit, in seconds."""
    small = dict(users=14, sites=10,
                 arrival=ArrivalCurve(window_ms=3_000.0))
    first = population_trial("opportunistic-SCION", 910, **small)
    second = population_trial("opportunistic-SCION", 910, **small)
    check("same-seed bit-identity", first == second)
    check("completed loads", first.loads > 0 and first.failed_loads == 0)
    check("percentile ordering",
          first.plt_p50_ms <= first.plt_p95_ms <= first.plt_p99_ms)
    check("path-server load measured", first.path_server_lookups > 0)
    check("daemon hit rate sane",
          0.0 <= first.daemon_cache_hit_rate <= 1.0)
    check("per-AS utilization reported", len(first.as_link_bytes) >= 2)

    baseline = population_trial("BGP/IP-only", 910, **small)
    check("baseline touches no SCION",
          baseline.scion_fetches == 0 and baseline.daemon_queries == 0)

    world = build_population_world("opportunistic-SCION", 911, users=10,
                                   sites=8,
                                   arrival=ArrivalCurve(window_ms=3_000.0),
                                   obs=True)
    processes = start_sessions(world)
    world.internet.run(until=1_500.0)
    for process in processes:
        process.interrupt("population selftest abort")
    world.internet.run()
    leaks = population_leak_report(world)
    check("interrupted run leaks nothing", not leaks)
    for leak in leaks[:8]:
        print(f"  leak: {leak}")


# One city-scale trial per transport mode is the report's size; the
# three modes overlap on the shared pool with every other battery.
POPULATION = Battery(
    name="population", label="Population battery",
    title="Population battery — a city browses",
    claim="§4/§5: daemon caches, pooled proxy connections, and "
          "path-aware transports keep tail latency bounded when a whole "
          "city browses at once",
    measured=_measured, holds=population_holds,
    cells=tuple((mode,) for mode in MODES), trial=population_trial,
    base_seed=900, trials=1, opt_in=True, artifact="population.json",
    configure=_configure,
    options=(("users", int, f"population size (default: ${USERS_ENV}, "
                            f"else {DEFAULT_USERS})"),
             ("sites", int, f"catalog size (default {DEFAULT_SITES})")),
    selftest=selftest,
    # One row per trial: a PopulationSample, read by field name.
    columns=(
        Column("mode", reduce=itemgetter(0), fmt="{mode:<22}",
               heading=f"{'mode':<22}"),
        Column("trials", None, len),
        Column("loads", reduce=sum),
        Column("failed_loads", reduce=sum),
        Column("plt_p50_ms", reduce=mean, fmt="{plt_p50_ms:>8.1f}ms",
               heading=f"{'p50':>9}"),
        Column("plt_p95_ms", reduce=mean, fmt="{plt_p95_ms:>8.1f}ms",
               heading=f"{'p95':>9}"),
        Column("plt_p99_ms", reduce=mean, fmt="{plt_p99_ms:>8.1f}ms",
               heading=f"{'p99':>9}"),
        Column("plt_mean_ms", reduce=mean),
        Column("path_server_qps", reduce=mean, fmt="{path_server_qps:>8.1f}",
               heading=f"{'PS qps':>8}"),
        Column("daemon_cache_hit_rate", reduce=mean,
               fmt="{daemon_cache_hit_rate:>7.1%}", heading=f"{'dmn hit':>8}"),
        Column("pool_waits", reduce=sum, fmt="{pool_waits:>7d}",
               heading=f"{'pool q':>7}"),
        Column("pool_wait_ms", reduce=sum, fmt="{pool_wait_ms:>8.1f}ms",
               heading=f"{'q ms':>9}"),
        Column("scion_fetches", reduce=sum),
        Column("as_link_bytes", reduce=merge_counts)),
    description=lambda trials, users, sites, **_: (
        f"{users} users, {sites} Zipf sites, {trials} trial(s)/mode; "
        "per-user sessions with think time, tabs, and revisit locality on "
        "the distributed testbed"),
    note="expected shape: opportunistic ≈ strict < BGP/IP-only on p99 for "
         "far-origin sites (SCION detour beats the slow direct core link); "
         "daemon hit rate ≫ 0 from revisit locality",
    cells_key="modes",
    header=lambda users, sites, **_: {"users": users, "sites": sites},
    footer=_footer,
)
