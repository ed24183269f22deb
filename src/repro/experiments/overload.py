"""The overload battery: a flash crowd hits the shared path services.

The paper's architecture moves network functionality out of the browser
into *shared* services — which makes those services (and the routes
behind them) shared overload points for every user in an AS. This
battery drives the metastable failure mode that regime invites:

* a **10× flash crowd** (``flash-crowd``/``correlated-spike`` arrival
  curves from :mod:`repro.workload.arrivals`) of users who all want the
  same site-of-the-day,
* through a testbed whose two disjoint core routes (the SCION detour
  and the legacy BGP direct link) are bandwidth-constrained, so the
  spike genuinely saturates the wire,
* with **impatient proxies** (low per-attempt timeouts), so saturation
  surfaces as timeouts — and timeouts as retries.

Two arms run the identical workload:

* ``protections-off`` — ``REPRO_ADMISSION=0`` + ``REPRO_RETRY_BUDGET=0``:
  every timeout retries with synchronized exponential backoff, every
  retry adds load, and the spike's work outlives the spike (the
  retry-storm collapse);
* ``protections-on`` (the default knobs) — admission control sheds
  excess path lookups (serve-stale where possible, explicit
  ``overloaded`` rejection otherwise, diverting shed users straight to
  the IP route), and the per-client retry budget + seeded backoff
  jitter bound amplification by construction.

Reported per arm: goodput before/during the burst, p99 PLT per phase
(pre/burst/post), shed fraction, retry-amplification factor
(wire attempts per fetch), and time-to-drain after the spike ends.
Every trial is a pure function of ``(arm, seed, config)``, so serial
and ``REPRO_WORKERS=4`` batteries are bit-identical (test-enforced);
``python -m repro.experiments overload --selftest`` is run by tier 1.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace

from repro.experiments.harness import Battery, Crowd, mean, observe_world
# ``harvest_rows`` is re-exported: the benchmark calls it on this module.
from repro.experiments.population import harvest_rows, percentile
from repro.experiments.remote_setup import FAR_ORIGIN
from repro.scion.admission import ADMISSION_ENV
from repro.core.skip.breaker import BREAKER_ENV
from repro.core.skip.retry_budget import RETRY_BUDGET_ENV
from repro.workload.arrivals import (ArrivalCurve, arrival_times,
                                     burst_window_ms, spike_site_flags)
from repro.workload.catalog import SiteCatalog, SiteProfile

#: The two arms, in presentation order.
ARMS = ("protections-on", "protections-off")


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs of one overload scenario (kept picklable for the pool)."""

    users: int = 78
    sites: int = 8
    #: Core bandwidths. The low-latency SCION detour is the *scarce*
    #: resource every latency-optimizing client dogpiles onto; the
    #: legacy direct route is slow (75 ms) but fatter. The spike's
    #: *peak* demand transiently exceeds even the combined capacity —
    #: that ignition is what a retry storm sustains long after the peak
    #: passes, while fail-fast protections let the same backlog drain at
    #: wire speed.
    detour_mbps: float = 1.5
    direct_mbps: float = 4.5
    #: Per-attempt proxy deadline — the impatient browser that turns
    #: queueing into timeouts into retries.
    timeout_ms: float = 1_200.0
    #: Retry attempts the proxy may make per route family. Generous on
    #: purpose: with the budget off this is the storm's fuel.
    max_attempts: int = 4
    #: The flash crowd: arrivals over the window with a 10× trapezoid
    #: burst, excess arrivals correlated onto the site of the day.
    #: The decay runs to the window's end, so everything after
    #: ``spike_end`` is pure backlog — ``time_to_drain`` measures
    #: congestion, not stragglers still arriving.
    arrival: ArrivalCurve = ArrivalCurve(
        window_ms=10_000.0, shape="correlated-spike", burst_multiplier=10.0,
        burst_start=0.25, burst_ramp=0.05, burst_duration=0.40,
        burst_decay=0.30)
    #: Shared path-server admission tuning: sustained lookup capacity
    #: and tolerated backlog before shedding starts.
    admission_qps: float = 2.0
    admission_depth: int = 4
    #: Per-client retry budget (token bucket): tight enough that a
    #: client retrying across many resources runs dry mid-burst and
    #: falls back to the direct route instead of hammering the detour.
    budget_capacity: float = 1.0
    budget_refill_per_sec: float = 0.1
    #: Goodput deadline: a load only counts as useful work if it
    #: finished within this budget of its own start. Generous (~6× the
    #: unloaded PLT of ~850 ms) so queued-but-served loads count, yet
    #: far below the storm's 8–15 s PLTs — the cliff sits between the
    #: two regimes, not inside either.
    slo_ms: float = 5_000.0
    #: Uniform site profile. Page bytes set the spike's demand, and
    #: demand vs. ``core_mbps`` *is* the scenario — so sizes are exact
    #: constants here, not draws from the catalog stream.
    resources_per_page: int = 7
    resource_bytes: int = 11_000
    html_bytes: int = 12_000


DEFAULT_CONFIG = OverloadConfig()


@dataclass(frozen=True)
class OverloadSample:
    """One trial's aggregate overload report (bit-comparable)."""

    arm: str
    users: int
    loads: int
    failed_loads: int
    #: Successful loads per second, by the phase the load *started* in.
    goodput_pre_per_s: float
    goodput_burst_per_s: float
    #: ``goodput_burst_per_s / goodput_pre_per_s``. A 10× crowd over a
    #: saturated wire can't all be served, but graceful degradation
    #: keeps the *rate* of useful work at or above the pre-spike
    #: baseline (≥ 1.0); a retry storm wastes the wire on doomed
    #: attempts and drives even that baseline rate toward 0.
    goodput_ratio: float
    plt_p50_pre_ms: float
    plt_p99_pre_ms: float
    plt_p99_burst_ms: float
    plt_p99_post_ms: float
    #: Wire attempts per proxy fetch — 1.0 means no retries at all.
    retry_amplification: float
    #: Lookups shed by admission control / all lookups it saw.
    shed_fraction: float
    requests_shed: int
    shed_served_stale: int
    #: Page resources flagged ``shed`` / ``retry_budget_exhausted``.
    shed_resources: int
    #: Retries the token buckets authorized / refused across clients.
    budget_retries_spent: int
    retry_budget_exhausted: int
    #: Largest admission backlog observed (the bounded queue's high
    #: watermark; 0 with admission off — nothing was ever queued there).
    peak_queue_depth: int
    #: How long after the spike ended the last session finished.
    time_to_drain_ms: float
    duration_ms: float
    events: int


def overload_testbed(detour_mbps: float, direct_mbps: float):
    """The distributed testbed with *constrained*, disjoint core routes.

    Same shape as :func:`repro.topology.defaults.remote_testbed` —
    latency-aware SCION picks the two-segment detour via ISD 3, legacy
    BGP the slow direct link — but here the attractive detour is
    bandwidth-scarce while the slow direct route has headroom, so a
    flash crowd of latency optimizers genuinely saturates the detour
    and shedding onto the IP route adds real capacity instead of
    sharing one pipe.
    """
    from repro.topology.generator import make_asn
    from repro.topology.graph import AsTopology, LinkKind
    from repro.topology.isd_as import IsdAs

    topo = AsTopology(name="overload-testbed")
    client = IsdAs(1, make_asn(1, 0x10))
    local_core = IsdAs(1, make_asn(1, 0))
    remote_core = IsdAs(2, make_asn(2, 0))
    origin = IsdAs(2, make_asn(2, 0x10))
    third_core = IsdAs(3, make_asn(3, 0))
    topo.add_as(local_core, core=True, geo=(47.38, 8.54), region="europe")
    topo.add_as(client, geo=(47.37, 8.55), region="europe")
    topo.add_as(remote_core, core=True, geo=(40.71, -74.01),
                region="north-america")
    topo.add_as(origin, geo=(39.95, -75.17), region="north-america")
    topo.add_as(third_core, core=True, geo=(35.68, 139.69), region="asia")
    topo.add_link(local_core, client, LinkKind.PARENT,
                  latency_ms=2.5, bandwidth_mbps=1000.0)
    topo.add_link(remote_core, origin, LinkKind.PARENT,
                  latency_ms=2.5, bandwidth_mbps=1000.0)
    # Direct transatlantic route: shortest AS path (what BGP uses),
    # worst latency — but with capacity headroom.
    topo.add_link(local_core, remote_core, LinkKind.CORE,
                  latency_ms=75.0, bandwidth_mbps=direct_mbps)
    # The lower-latency detour latency-aware SCION prefers — narrow,
    # so the spike saturates it.
    topo.add_link(local_core, third_core, LinkKind.CORE,
                  latency_ms=22.0, bandwidth_mbps=detour_mbps)
    topo.add_link(third_core, remote_core, LinkKind.CORE,
                  latency_ms=24.0, bandwidth_mbps=detour_mbps)
    topo.validate()
    return topo, client, origin


def overload_catalog(config: OverloadConfig) -> SiteCatalog:
    """A pinned catalog of uniform sites on the far origin.

    Unlike :func:`~repro.workload.catalog.default_catalog`, profiles are
    exact constants — per-seed variation belongs to arrival timing,
    spike membership, and processing noise, not to whether the crowd's
    byte demand saturates the wire. (Individual asset sizes still come
    from each site's own ``site:{name}`` stream, same as any catalog.)
    """
    return SiteCatalog(
        SiteProfile(name=f"site-{rank:03d}", origin=FAR_ORIGIN, rank=rank,
                    n_resources=config.resources_per_page,
                    mean_resource_bytes=config.resource_bytes,
                    html_size=config.html_bytes)
        for rank in range(1, config.sites + 1))


def build_overload_world(seed: int,
                         config: OverloadConfig = DEFAULT_CONFIG
                         ) -> Crowd:
    """Assemble the constrained testbed with a flash-crowd population.

    The arm is *not* a parameter: protections are toggled through the
    ``REPRO_ADMISSION``/``REPRO_RETRY_BUDGET`` knobs (the trial function
    forces them), so the built world differs only in what those
    subsystems do — never in RNG stream layout.
    """
    from repro.core.browser.brave import BraveBrowser
    from repro.core.ppl.policies import latency_optimized
    from repro.dns.resolver import Resolver
    from repro.http.reverse_proxy import ScionReverseProxy
    from repro.http.server import HttpServer
    from repro.internet.build import Internet

    topology, client_as, origin_as = overload_testbed(config.detour_mbps,
                                                      config.direct_mbps)
    internet = Internet(topology, seed=seed)
    resolver = Resolver(internet.loop, lookup_latency_ms=4.0)

    catalog = overload_catalog(config)
    server_host = internet.add_host("origin-www", origin_as)
    rp_host = internet.add_host("rp-www", origin_as)
    HttpServer(server_host, catalog.origin_content(FAR_ORIGIN),
               serve_tcp=True, serve_quic=False)
    ScionReverseProxy(rp_host, server_host.addr)
    resolver.register_host(FAR_ORIGIN, ip_address=server_host.addr,
                           scion_address=rp_host.addr)

    # Tune the shared server's admission gate to this world's scale:
    # capacity sits above the baseline first-contact lookup rate and
    # well below the spike's.
    admission = internet.path_server.admission
    admission.capacity_qps = config.admission_qps
    admission.max_queue_depth = config.admission_depth

    hosts = internet.add_population("user", client_as, config.users)
    arrivals = arrival_times(config.users, config.arrival, seed)
    spiked = spike_site_flags(arrivals, config.arrival, seed)
    site_rng = random.Random(f"overload-sites:{seed}")
    users = []
    for user_id, host in enumerate(hosts):
        browser = BraveBrowser(host, resolver, extension_enabled=True,
                               rng=internet.network.rng)
        browser.settings.extra_policies.append(latency_optimized())
        browser.extension.apply_settings()
        browser.proxy.request_timeout_ms = config.timeout_ms
        browser.proxy.max_scion_attempts = config.max_attempts
        browser.proxy.max_ip_attempts = config.max_attempts
        browser.proxy.retry_budget.configure(
            config.budget_capacity, config.budget_refill_per_sec)
        # Site of the day for the spike's excess arrivals; everyone
        # else browses the catalog uniformly. The draw always happens,
        # so the stream never depends on the flags.
        site = site_rng.randrange(config.sites)
        if spiked[user_id]:
            site = 0
        users.append((user_id, browser, catalog.page_for(site),
                      arrivals[user_id]))
    return Crowd(internet, catalog, users, config=config)


def _user_load(world: Crowd, browser, page, arrival_ms: float):
    """One user's driver: arrive with the crowd, load the page once."""
    loop = world.internet.loop
    if loop.now < arrival_ms:
        yield loop.timeout(arrival_ms - loop.now)
    started = loop.now
    result = yield from browser.load(page)
    return [(started, loop.now, result.plt_ms, result.failed,
             result.scion_count, result.shed_count,
             result.retry_budget_exhausted_count)]


def start_crowd(world: Crowd) -> list:
    """Spawn every user's page load as a loop process."""
    loop = world.internet.loop
    return [loop.process(_user_load(world, browser, page, arrival_ms),
                         name=f"user-{user_id}")
            for user_id, browser, page, arrival_ms in world.users]


def collect_sample(world: Crowd, arm: str, rows) -> OverloadSample:
    """Aggregate a drained world into phase-partitioned overload stats."""
    internet = world.internet
    config = world.config
    spike_start, spike_end = burst_window_ms(config.arrival)
    pre = [row for row in rows if row[0] < spike_start]
    burst = [row for row in rows if row[0] >= spike_start]
    # "Post" loads are the drain stragglers: started in the spike but
    # still running when it ended (the decay runs to the window's end,
    # so nothing *starts* after spike_end).
    post = [row for row in rows if row[1] >= spike_end]

    def ok_plts(phase_rows):
        return sorted(row[2] for row in phase_rows if not row[3])

    pre_ok, burst_ok = ok_plts(pre), ok_plts(burst)
    # Goodput counts only work done *within the SLO*: under a retry
    # storm every load still ends eventually, but far too late to be
    # useful — that's exactly the collapse the deadline exposes.
    done_pre = sum(1 for row in pre
                   if not row[3] and row[2] <= config.slo_ms)
    done_burst = sum(1 for row in burst
                     if not row[3] and row[2] <= config.slo_ms)
    # The pre-spike baseline floors at one load so the ratio stays
    # finite on seeds whose thin pre-phase lands zero completions.
    goodput_pre = max(done_pre, 1) / (spike_start / 1_000.0)
    goodput_burst = done_burst / ((spike_end - spike_start) / 1_000.0)

    metrics = observe_world(world)
    fetches = metrics.total("proxy_fetches")
    attempts = metrics.total("proxy_attempts")
    stale = int(metrics.total("admission_shed_stale"))
    shed = stale + int(metrics.total("admission_shed_rejected"))
    admitted = metrics.total("admission_admitted")
    ended = max((row[1] for row in rows), default=spike_end)
    return OverloadSample(
        arm=arm,
        users=config.users,
        loads=len(rows),
        failed_loads=sum(1 for row in rows if row[3]),
        goodput_pre_per_s=goodput_pre,
        goodput_burst_per_s=goodput_burst,
        goodput_ratio=goodput_burst / goodput_pre,
        plt_p50_pre_ms=percentile(pre_ok, 0.50),
        plt_p99_pre_ms=percentile(pre_ok, 0.99),
        plt_p99_burst_ms=percentile(burst_ok, 0.99),
        plt_p99_post_ms=percentile(ok_plts(post), 0.99),
        retry_amplification=(attempts / fetches if fetches else 0.0),
        shed_fraction=(shed / (shed + admitted) if shed + admitted else 0.0),
        requests_shed=shed,
        shed_served_stale=stale,
        shed_resources=sum(row[5] for row in rows),
        budget_retries_spent=int(metrics.total("retry_budget_spent_total")),
        retry_budget_exhausted=int(
            metrics.total("retry_budget_exhausted_total")),
        peak_queue_depth=int(max(
            metrics.gauges_named("admission_peak_backlog").values())),
        time_to_drain_ms=max(0.0, ended - spike_end),
        duration_ms=internet.loop.now,
        events=internet.loop.events_processed,
    )


def drain_arm(arm: str, seed: int, config: OverloadConfig = DEFAULT_CONFIG
              ) -> tuple[Crowd, list]:
    """Build one arm's world and run its crowd to quiescence; returns
    the drained world and its load rows (see :func:`harvest_rows`)."""
    from repro.internet.knobs import forced_many

    if arm not in ARMS:
        raise ValueError(f"unknown overload arm {arm!r}")
    # The off arm is the naive pre-robustness retry stack: no admission
    # control, no retry budget — and no circuit breaking either, so
    # per-request retries return to the congested path they just timed
    # out on (the storm's defining feedback loop).
    overrides = ({ADMISSION_ENV: False, RETRY_BUDGET_ENV: False,
                  BREAKER_ENV: False}
                 if arm == "protections-off" else {})
    with forced_many(overrides):
        world = build_overload_world(seed, config)
        processes = start_crowd(world)
        world.internet.run()
        return world, harvest_rows(processes)


def overload_trial(arm: str, seed: int,
                   config: OverloadConfig = DEFAULT_CONFIG
                   ) -> OverloadSample:
    """One overload trial; a pure function of ``(arm, seed, config)``."""
    world, rows = drain_arm(arm, seed, config)
    return collect_sample(world, arm, rows)


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------


@dataclass
class OverloadResult:
    """The battery report: per-arm samples plus presentation."""

    name: str
    description: str
    users: int
    trials: int
    samples: dict[str, tuple[OverloadSample, ...]] = field(
        default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def _arm_aggregate(self, arm: str) -> dict:
        samples = self.samples[arm]
        count = len(samples)
        return {
            "arm": arm,
            "trials": count,
            "loads": sum(s.loads for s in samples),
            "failed_loads": sum(s.failed_loads for s in samples),
            "goodput_ratio": sum(s.goodput_ratio for s in samples) / count,
            "plt_p99_pre_ms": sum(s.plt_p99_pre_ms for s in samples) / count,
            "plt_p99_burst_ms": sum(s.plt_p99_burst_ms
                                    for s in samples) / count,
            "plt_p99_post_ms": sum(s.plt_p99_post_ms
                                   for s in samples) / count,
            "retry_amplification": sum(s.retry_amplification
                                       for s in samples) / count,
            "shed_fraction": sum(s.shed_fraction for s in samples) / count,
            "requests_shed": sum(s.requests_shed for s in samples),
            "retry_budget_exhausted": sum(s.retry_budget_exhausted
                                          for s in samples),
            "peak_queue_depth": max(s.peak_queue_depth for s in samples),
            "time_to_drain_ms": sum(s.time_to_drain_ms
                                    for s in samples) / count,
        }

    def render(self) -> str:
        lines = [self.name, "=" * len(self.name), self.description, ""]
        header = (f"{'arm':<17} {'goodput':>8} {'p99 pre':>9} "
                  f"{'p99 burst':>10} {'p99 post':>9} {'ampl':>6} "
                  f"{'shed':>6} {'drain':>9}")
        lines += [header, "-" * len(header)]
        for arm in self.samples:
            agg = self._arm_aggregate(arm)
            lines.append(
                f"{arm:<17} {agg['goodput_ratio']:>7.2f}x"
                f" {agg['plt_p99_pre_ms']:>8.0f}ms"
                f" {agg['plt_p99_burst_ms']:>9.0f}ms"
                f" {agg['plt_p99_post_ms']:>8.0f}ms"
                f" {agg['retry_amplification']:>5.2f}x"
                f" {agg['shed_fraction']:>6.1%}"
                f" {agg['time_to_drain_ms']:>8.0f}ms")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "users": self.users,
            "trials": self.trials,
            "arms": {arm: self._arm_aggregate(arm) for arm in self.samples},
            "samples": {arm: [asdict(sample) for sample in samples]
                        for arm, samples in self.samples.items()},
            "notes": list(self.notes),
        }


def overload_scores(arm: str, seed: int,
                    config: OverloadConfig = DEFAULT_CONFIG
                    ) -> tuple[float, float, float, float]:
    """One trial as the row the component harness scores:
    ``(goodput_ratio, retry_amplification, shed_fraction, drain_ms)``."""
    sample = overload_trial(arm, seed, config)
    return (sample.goodput_ratio, sample.retry_amplification,
            sample.shed_fraction, sample.time_to_drain_ms)


def _configure(users: int | None = None,
               config: OverloadConfig = DEFAULT_CONFIG) -> dict:
    """``users=N`` is shorthand for the default scenario at another
    crowd size."""
    return {"config": config if users is None
            else replace(config, users=users)}


def _assemble(trials: int, rows_by_cell,
              config: OverloadConfig) -> OverloadResult:
    result = OverloadResult(
        name="Overload battery — flash crowd vs. graceful degradation",
        description=(f"{config.users} users, "
                     f"{config.arrival.burst_multiplier:.0f}× "
                     f"correlated spike on the site of the day, "
                     f"{config.detour_mbps:g} Mbps detour / "
                     f"{config.direct_mbps:g} Mbps direct, "
                     f"{trials} trial(s)/arm"),
        users=config.users, trials=trials)
    result.notes.append(
        "expected shape: protections-off shows retry amplification ≫ 1 "
        "and a drain tail outliving the spike (metastable retry storm); "
        "protections-on sheds lookups onto the IP route, bounds "
        "amplification, and keeps burst goodput near the pre-spike rate")
    for (arm,), samples in rows_by_cell.items():
        result.samples[arm] = tuple(samples)
    return result


def overload_holds(result: OverloadResult) -> bool:
    """Whether the overload battery matched §4.2's graceful-degradation
    shape: protections off, the retry storm amplifies load and outlives
    the spike; protections on, queues stay bounded, shedding is explicit,
    and burst goodput beats the naive arm."""
    spike_start, spike_end = burst_window_ms(DEFAULT_CONFIG.arrival)
    spike_ms = spike_end - spike_start
    on_samples = result.samples["protections-on"]
    off_samples = result.samples["protections-off"]
    for off in off_samples:
        if off.retry_amplification <= 2.0 or off.time_to_drain_ms <= spike_ms:
            return False
        if off.requests_shed != 0:
            return False
    for on in on_samples:
        if on.requests_shed == 0 or on.time_to_drain_ms > spike_ms:
            return False
    return (mean(s.goodput_ratio for s in on_samples)
            > mean(s.goodput_ratio for s in off_samples))


def _measured(result: OverloadResult) -> str:
    on_samples = result.samples["protections-on"]
    off_ampl = mean(s.retry_amplification
                    for s in result.samples["protections-off"])
    return (f"protections off: {off_ampl:.1f}× retry amplification, "
            f"overload outlives the spike; on: "
            f"{mean(s.shed_fraction for s in on_samples):.0%} shed "
            f"explicitly, burst goodput "
            f"{mean(s.goodput_ratio for s in on_samples):.1f}× pre-spike, "
            "drains within the spike window")


# ---------------------------------------------------------------------------
# Selftest (``python -m repro.experiments overload --selftest``)
# ---------------------------------------------------------------------------


def selftest(check) -> None:
    """Determinism + the on/off contrast, in seconds."""
    config = DEFAULT_CONFIG
    on = overload_trial("protections-on", 1210, config)
    again = overload_trial("protections-on", 1210, config)
    off = overload_trial("protections-off", 1210, config)
    check("same-seed bit-identity", on == again)
    check("crowd arrived", on.loads == config.users and off.loads
          == config.users)
    check("off arm amplifies retries (> 2x)",
          off.retry_amplification > 2.0)
    check("on arm bounds amplification",
          on.retry_amplification < off.retry_amplification)
    check("admission sheds under the spike",
          on.requests_shed > 0 and on.shed_fraction > 0.0
          and on.shed_resources > 0)
    check("off arm never sheds (knob honored)",
          off.requests_shed == 0 and off.peak_queue_depth == 0)
    check("retry budget exhausts under overload",
          on.retry_budget_exhausted > 0)
    check("bounded queue", on.peak_queue_depth > 0)
    check("goodput preserved with protections (burst rate >= 80% of "
          "the pre-spike rate)", on.goodput_ratio >= 0.8)
    check("off arm degrades goodput below the on arm",
          off.goodput_ratio < on.goodput_ratio)
    spike_ms = (burst_window_ms(config.arrival)[1]
                - burst_window_ms(config.arrival)[0])
    check("off arm's tail outlives the spike",
          off.time_to_drain_ms > spike_ms)
    check("on arm drains within one spike interval",
          on.time_to_drain_ms <= spike_ms)
    # The post phase *is* the straggler backlog, so its p99 tracks the
    # burst's worst loads — recovery means it stays in that envelope
    # (vs. the storm, where the post tail dwarfs the burst itself).
    check("on arm p99 recovers after the burst",
          on.plt_p99_post_ms <= max(2.0 * on.plt_p99_pre_ms,
                                    1.25 * on.plt_p99_burst_ms))


# Two seeds per arm of the flash-crowd contrast.
OVERLOAD = Battery(
    name="overload", label="Overload battery",
    title="Overload battery — flash crowd vs. graceful degradation",
    claim="§4.2: shared network infrastructure must degrade gracefully "
          "under a flash crowd — admission control and retry budgets "
          "prevent metastable retry storms",
    measured=_measured, holds=overload_holds, assemble=_assemble,
    cells=tuple((arm,) for arm in ARMS), trial=overload_trial,
    base_seed=1200, trials=2, opt_in=True, artifact="overload.json",
    configure=_configure,
    options=(("users", int, f"crowd size (default {DEFAULT_CONFIG.users})"),),
    selftest=selftest, score_trial=overload_scores,
    reducers=(("goodput_ratio", mean), ("retry_amplification", mean),
              ("shed_fraction", mean), ("drain_ms", mean)),
)
