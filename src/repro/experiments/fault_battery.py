"""The chaos battery: PLT and recovery under injected failures.

The paper argues the browser-integrated design must "deal gracefully
with temporary unavailability" (§4.2): opportunistic mode falls back to
the legacy Internet when SCION breaks, strict mode refuses to — it
blocks. This experiment quantifies that trade under a battery of fault
scenarios, each run in opportunistic *and* strict mode:

* ``baseline``       — no faults (the control row).
* ``link-flap``      — the latency-best SCION core link (the detour via
  ISD 3) dies just after the load starts. An alternate policy-compliant
  path exists, so both modes should recover via *path failover*, without
  any IP fallback.
* ``loss-burst``     — a 35 % loss burst on every link; the transports
  hide it, both modes pay time, nobody fails.
* ``latency-spike``  — +120 ms on every link for a few seconds.
* ``quic-outage``    — the origin stops answering QUIC (its SCION side
  is dead, TCP stays up). Paths exist, fetches fail: opportunistic
  recovers over IP, strict blocks every resource.
* ``infra-outage``   — the path-server infrastructure is unreachable
  from t=0 with a cold daemon cache: no path lookup succeeds.
  Opportunistic falls back to IP, strict blocks.
* ``segment-expiry`` — the daemon holds *expired* cached segments that
  cannot be refreshed (infrastructure down for six-plus hours).
  Opportunistic falls back, strict blocks.

Every trial builds a fresh world from its seed and arms a deterministic
:class:`~repro.simnet.faults.FaultSchedule`, so the battery is a pure
function of ``(scenario, mode, seed)`` — serial and worker-pool runs are
bit-identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.core.browser.brave import BraveBrowser
from repro.core.browser.page import content_for_origin, synthetic_page
from repro.core.ppl.policies import latency_optimized
from repro.dns.resolver import Resolver
from repro.errors import ReproError
from repro.experiments.harness import (Battery, BoxStats, World,
                                       attach_tracer, load_page)
from repro.http.server import HttpServer
from repro.internet.build import Internet
from repro.simnet.faults import FaultSchedule, inject
from repro.topology.defaults import remote_testbed

#: The one origin the chaos page loads from.
ORIGIN = "site.example"

#: Scenario names, in presentation order.
SCENARIOS = ("baseline", "link-flap", "loss-burst", "latency-spike",
             "quic-outage", "infra-outage", "segment-expiry")

#: Proxy modes, in presentation order.
MODES = ("opportunistic", "strict")

#: The scenarios where opportunistic mode keeps the page alive over IP
#: while strict mode blocks (SCION is unusable but the legacy Internet
#: is not) — the availability/assurance trade the battery demonstrates.
FALLBACK_SCENARIOS = ("quic-outage", "infra-outage", "segment-expiry")

#: Per-attempt deadline for chaos worlds. Healthy exchanges here finish
#: in hundreds of milliseconds, so an impatient browser-like deadline is
#: safe and keeps fault detection snappy.
CHAOS_REQUEST_TIMEOUT_MS = 15_000.0

#: Subresources of the chaos page.
N_RESOURCES = 6


def build_fault_world(seed: int, n_resources: int = N_RESOURCES,
                      strict: bool = False, obs: bool = False,
                      revocation: bool | None = None) -> World:
    """A distributed-testbed world with one dual-stack origin.

    The origin serves both QUIC/SCION and TCP/IP, so SCION-specific
    faults leave an IP escape hatch — which opportunistic mode may take
    and strict mode must not. A latency policy makes both core routes
    policy-compliant (failover has somewhere to go). ``revocation``
    switches dissemination per world (the resilience battery's cells);
    ``None`` defers to the ``REPRO_REVOCATION`` knob.
    """
    topology, ases = remote_testbed()
    # Fault worlds run pure packet-level: most scenarios arm the fault
    # injector (which disables the fast path anyway), and the ones that
    # don't — baseline, quic-outage, segment-expiry — must produce rows
    # bit-identical to them and to pre-fast-path behavior.
    internet = Internet(topology, seed=seed, revocation=revocation,
                        fastpath=False)
    client = internet.add_host("client", ases.client)
    origin = internet.add_host("origin", ases.remote_server)
    page = synthetic_page(ORIGIN, n_resources=n_resources, seed=seed)
    server = HttpServer(origin, content_for_origin(page, ORIGIN),
                        serve_tcp=True, serve_quic=True)
    resolver = Resolver(internet.loop, lookup_latency_ms=2.0)
    resolver.register_host(ORIGIN, ip_address=origin.addr,
                           scion_address=origin.addr)
    browser = BraveBrowser(client, resolver, rng=internet.network.rng)
    browser.settings.extra_policies.append(latency_optimized())
    browser.extension.apply_settings()
    browser.proxy.request_timeout_ms = CHAOS_REQUEST_TIMEOUT_MS
    if strict:
        browser.extension.enable_strict_mode()
    return World(internet, browser, page, server=server, ases=ases,
                 tracer=attach_tracer(internet, browser) if obs else None)


def scenario_schedule(scenario: str, ases) -> FaultSchedule:
    """The fault schedule a named scenario arms (may be empty)."""
    schedule = FaultSchedule()
    if scenario == "link-flap":
        schedule.link_down(f"{ases.local_core}~{ases.third_core}",
                           at_ms=5.0, duration_ms=60_000.0)
    elif scenario == "loss-burst":
        schedule.loss_burst("*", at_ms=20.0, duration_ms=2_000.0,
                            loss_rate=0.35)
    elif scenario == "latency-spike":
        schedule.latency_spike("*", at_ms=10.0, duration_ms=4_000.0,
                               extra_ms=120.0)
    elif scenario == "infra-outage":
        schedule.scion_outage(at_ms=0.0)
    elif scenario not in ("baseline", "quic-outage", "segment-expiry"):
        raise ReproError(f"unknown fault scenario {scenario!r}")
    return schedule


def _prepare_scenario(world: World, scenario: str) -> None:
    """Arm the scenario against a built world (before the load starts)."""
    if scenario == "quic-outage":
        # The origin's SCION side dies; its TCP listener stays up.
        assert world.server.quic_listener is not None
        world.server.quic_listener.close()
    elif scenario == "segment-expiry":
        # Warm the daemon cache, kill the infrastructure, then let every
        # cached segment age out: refreshes are impossible.
        daemon = world.browser.host.daemon
        origin_as = world.internet.host("origin").addr.isd_as
        paths = daemon.paths(origin_as)
        world.internet.path_server.available = False
        last_expiry = max(path.expiry_ms() for path in paths)
        world.internet.loop.run(until=last_expiry + 1_000.0)
    schedule = scenario_schedule(scenario, world.ases)
    if len(schedule):
        inject(world.internet, schedule)


def fault_load(scenario: str, mode: str, seed: int,
               n_resources: int = N_RESOURCES, obs: bool = False):
    """One chaos load in a fresh world; returns ``(world, result)``.

    With ``obs=True`` ``world.tracer`` carries the retry / path-failure
    / fallback span events of the load — what the fault post-mortems
    read.
    """
    world = build_fault_world(seed, n_resources=n_resources,
                              strict=(mode == "strict"), obs=obs)
    _prepare_scenario(world, scenario)
    return world, load_page(world)


def fault_trial(scenario: str, mode: str, seed: int,
                n_resources: int = N_RESOURCES) -> tuple[float, float, float,
                                                         float, float]:
    """One chaos trial; returns ``(plt_ms, ok, failover, fallback,
    failed)``.

    The counts are over the page's ``1 + n_resources`` fetches: resources
    that arrived, resources saved by SCION path failover, resources
    saved by IP fallback, and resources that never arrived (blocked or
    dead). Pure function of its arguments — the parallel trial pool
    relies on that.
    """
    world, result = fault_load(scenario, mode, seed, n_resources)
    total = 1 + len(world.page.resources)
    ok = result.ok_count
    return (result.plt_ms, float(ok), float(result.failover_count),
            float(result.fallback_count), float(total - ok))


@dataclass(frozen=True)
class FaultCell:
    """One (scenario, mode) cell of the battery."""

    plt: BoxStats
    ok: int
    failover: int
    fallback: int
    failed: int
    total: int

    @property
    def recovered_fraction(self) -> float:
        """Fraction of fetches saved by failover or fallback."""
        return (self.failover + self.fallback) / self.total if self.total \
            else 0.0


@dataclass
class FaultBatteryResult:
    """The whole battery: one :class:`FaultCell` per scenario × mode."""

    trials: int
    cells: dict[tuple[str, str], FaultCell] = field(default_factory=dict)

    def cell(self, scenario: str, mode: str) -> FaultCell:
        """Look up one cell."""
        return self.cells[(scenario, mode)]

    def render(self) -> str:
        """The battery as a text table."""
        lines = [
            "== Chaos battery — PLT and recovery under injected faults ==",
            (f"{self.trials} trials/cell; counts summed over trials "
             "(ok / failover / fallback / failed of total fetches)"),
            "",
        ]
        for (scenario, mode), cell in self.cells.items():
            label = f"{scenario} / {mode}"
            lines.append(cell.plt.row(label))
            lines.append(
                f"{'':<24} ok={cell.ok}/{cell.total} "
                f"failover={cell.failover} fallback={cell.fallback} "
                f"failed={cell.failed} "
                f"recovered={cell.recovered_fraction:.0%}")
        lines.append(
            "note: expected shape — link-flap recovers via path failover "
            "in BOTH modes with zero IP fallback; the SCION-specific "
            "outages (quic-outage, infra-outage, segment-expiry) are "
            "recovered over IP by opportunistic mode and blocked by "
            "strict mode")
        return "\n".join(lines)


def _assemble(trials: int, rows_by_cell,
              n_resources: int = N_RESOURCES) -> FaultBatteryResult:
    battery = FaultBatteryResult(trials=trials)
    for key, rows in rows_by_cell.items():
        battery.cells[key] = FaultCell(
            plt=BoxStats.from_samples([row[0] for row in rows]),
            ok=int(sum(row[1] for row in rows)),
            failover=int(sum(row[2] for row in rows)),
            fallback=int(sum(row[3] for row in rows)),
            failed=int(sum(row[4] for row in rows)),
            total=trials * (1 + n_resources),
        )
    return battery


def chaos_holds(chaos: FaultBatteryResult) -> bool:
    """Whether the chaos battery matched §4.2's graceful-degradation
    shape: failover without fallback on link-flap, and opportunistic
    recovering (over IP) everything strict blocks in the SCION-specific
    outages."""
    flap = chaos.cell("link-flap", "opportunistic")
    if flap.failover == 0 or flap.fallback > 0 or flap.failed > 0:
        return False
    for scenario in FALLBACK_SCENARIOS:
        opportunistic = chaos.cell(scenario, "opportunistic")
        strict = chaos.cell(scenario, "strict")
        if opportunistic.failed > 0 or opportunistic.fallback == 0:
            return False
        if strict.failed == 0 or strict.ok > 0:
            return False
    return True


def _measured(chaos: FaultBatteryResult) -> str:
    recovered = sum(chaos.cell(scenario, "opportunistic").fallback
                    for scenario in FALLBACK_SCENARIOS)
    blocked = sum(chaos.cell(scenario, "strict").failed
                  for scenario in FALLBACK_SCENARIOS)
    return (f"link-flap: {chaos.cell('link-flap', 'opportunistic').failover} "
            f"failovers, 0 fallbacks; SCION outages: opportunistic recovers "
            f"{recovered} fetches over IP, strict blocks {blocked}")


CHAOS = Battery(
    name="chaos", label="Chaos battery",
    title="Chaos battery — PLT and recovery under faults",
    claim="§4.2: failures degrade gracefully — failover when an alternate "
          "path exists, opportunistic falls back to IP, strict blocks "
          "instead",
    measured=_measured, holds=chaos_holds, assemble=_assemble,
    cells=tuple((scenario, mode) for scenario in SCENARIOS
                for mode in MODES),
    trial=fault_trial, base_seed=500, trials=10,
    traced=functools.partial(fault_load, obs=True),
    traced_cell=("link-flap", "opportunistic"),
)
