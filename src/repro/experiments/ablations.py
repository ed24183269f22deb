"""Ablations beyond the paper's figures (DESIGN.md §4, experiments A-E).

* **Ablation A — overhead decomposition.** §5.2 attributes the ~100 ms
  penalty to "the extension and the HTTP proxy" and predicts that "with
  tighter SCION integration in the browser ... the overhead [will]
  disappear". We zero out the extension cost, the proxy cost, and both,
  quantifying how much each contributes — the quantitative version of
  the paper's tighter-integration claim.

* **Ablation B — path-policy selection quality.** On randomly generated
  Internets with rich path choice, compare the path a policy selects
  against the true optimum (by the policy's own metric) and against an
  arbitrary choice, plus geofencing compliance/availability.

* **Ablation C — partial availability modes.** Sweep the fraction of
  SCION-enabled origins and measure what opportunistic vs strict mode
  delivers: resources loaded, SCION share, blocked count (§4.2's
  trade-off made quantitative).

* **Ablation D — multipath bulk transfer.** §1's "native inter-domain
  multipath": one 4 MB transfer over one and over two link-disjoint
  paths of the dual-homed testbed.

* **Ablation E — beacon-store diversity.** Sweep the beaconing service's
  ``beacons_per_target`` budget and measure how many end-to-end paths
  survive and how close the best one stays to the latency optimum —
  the control-plane knob behind §2's "dozens to over a hundred paths".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.browser.brave import BraveBrowser
from repro.core.browser.page import Resource, WebPage, content_for_origin
from repro.core.geofence import Geofence
from repro.core.ppl.evaluator import metric_value, order_paths, permits
from repro.core.ppl.policies import co2_optimized, latency_optimized
from repro.dns.resolver import Resolver
from repro.errors import NoPathError
from repro.experiments.harness import Battery, BoxStats, plt_result, serial
from repro.experiments.local_setup import (
    DEFAULT_CALIBRATION,
    N_RESOURCES,
    LocalCalibration,
    build_local_world,
    load_once,
    make_page,
)
from repro.http.server import HttpServer
from repro.internet.build import Internet
from repro.internet.snapshot import control_plane_snapshot
from repro.quic.multipath import BulkSink, disjoint_paths, multipath_send
from repro.scion.combinator import combine_segments
from repro.topology.defaults import (LOCAL_AS, dual_homed_testbed,
                                     local_testbed)
from repro.topology.generator import random_internet

# ---------------------------------------------------------------------------
# Ablation A — overhead decomposition
# ---------------------------------------------------------------------------

ABLATION_A_CONDITIONS = ("full detour", "free extension", "free proxy",
                         "free both", "no detour (BGP/IP)")


def _calibration_for(condition: str) -> LocalCalibration:
    base = DEFAULT_CALIBRATION
    extension = 0.0 if condition in ("free extension", "free both") \
        else base.extension_overhead_ms
    proxy = 0.0 if condition in ("free proxy", "free both") \
        else base.proxy_processing_ms
    ipc = 0.0 if condition == "free both" else base.ipc_latency_ms
    return LocalCalibration(
        extension_overhead_ms=extension,
        ipc_latency_ms=ipc,
        proxy_processing_ms=proxy,
        dns_latency_ms=base.dns_latency_ms,
        host_jitter_ms=base.host_jitter_ms,
    )


def ablation_a_trial(condition: str, seed: int,
                     n_resources: int = N_RESOURCES) -> float:
    """One overhead-decomposition trial on the mixed local page."""
    return load_once(build_local_world(
        make_page("mixed SCION-IP", n_resources, seed), seed,
        calibration=_calibration_for(condition),
        extension_enabled=condition != "no detour (BGP/IP)"))


def ablation_a_holds(ablation_a) -> bool:
    """Whether §5.2's prediction held: with the extension and the proxy
    both free, the detour costs about what no detour does."""
    return (ablation_a.median("free both")
            < 1.6 * ablation_a.median("no detour (BGP/IP)"))


ABLATION_A = Battery(
    name="ablation-a", label="Ablation A",
    title="Ablation A — overhead decomposition",
    claim="§5.2: tighter integration removes the overhead",
    measured=lambda ablation_a: (
        f"'free both' {ablation_a.median('free both'):.0f} ms ≈ "
        f"baseline {ablation_a.median('no detour (BGP/IP)'):.0f} ms"),
    holds=ablation_a_holds,
    assemble=lambda trials, rows_by_cell, n_resources=N_RESOURCES: plt_result(
        "Ablation A — extension/proxy overhead decomposition",
        f"mixed local page, {n_resources} resources, {trials} trials; "
        "PLT in ms", rows_by_cell,
        "'free both' approximates the paper's predicted tighter browser "
        "integration: the detour overhead nearly disappears"),
    cells=tuple((condition,) for condition in ABLATION_A_CONDITIONS),
    trial=ablation_a_trial, base_seed=700, trials=15,
)


# ---------------------------------------------------------------------------
# Ablation B — path-policy selection quality
# ---------------------------------------------------------------------------


@dataclass
class PolicyQualityResult:
    """Selection quality over many (src, dst) pairs."""

    name: str
    pairs: int = 0
    mean_paths_per_pair: float = 0.0
    policy_vs_optimal: BoxStats | None = None   # ratio, 1.0 = optimal
    arbitrary_vs_optimal: BoxStats | None = None
    geofence_available: int = 0
    geofence_compliant_choices: int = 0
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Text summary."""
        lines = [f"== {self.name} ==",
                 f"{self.pairs} src-dst pairs, "
                 f"{self.mean_paths_per_pair:.1f} candidate paths/pair"]
        if self.policy_vs_optimal:
            lines.append(self.policy_vs_optimal.row(
                "policy/optimal ratio", unit=""))
        if self.arbitrary_vs_optimal:
            lines.append(self.arbitrary_vs_optimal.row(
                "arbitrary/optimal ratio", unit=""))
        lines.append(f"geofence: compliant choice for "
                     f"{self.geofence_compliant_choices}/"
                     f"{self.geofence_available} reachable pairs")
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def run_ablation_policy(metric: str = "co2", seed: int = 42,
                        n_isds: int = 3, pairs: int = 40) -> PolicyQualityResult:
    """Ablation B: policy-selected vs optimal vs arbitrary paths.

    Control-plane only (no packet simulation needed): generate a random
    Internet, run beaconing, combine paths for random pairs, and compare
    selections by the given metric ("co2" or "latency").
    """
    topology = random_internet(n_isds=n_isds, cores_per_isd=2,
                               leaves_per_isd=4, seed=seed)
    control_plane = control_plane_snapshot(topology)
    store, core_ases = control_plane.store, control_plane.core_ases
    all_ases = [info.isd_as for info in topology.ases()]
    rng = random.Random(seed)
    policy = co2_optimized() if metric == "co2" else latency_optimized()
    geofence = Geofence(blocked_isds={n_isds})  # block the last ISD
    geofence_policy = geofence.to_policy()

    result = PolicyQualityResult(
        name=f"Ablation B — policy quality ({metric}), seed {seed}")
    policy_ratios: list[float] = []
    arbitrary_ratios: list[float] = []
    total_paths = 0
    for _ in range(pairs):
        src, dst = rng.sample(all_ases, 2)
        candidates = combine_segments(src, dst, store, core_ases=core_ases)
        if not candidates:
            continue
        result.pairs += 1
        total_paths += len(candidates)
        optimal = min(metric_value(path, metric) for path in candidates)
        chosen = order_paths(policy, candidates)[0]
        arbitrary = rng.choice(candidates)
        floor = max(optimal, 1e-9)
        policy_ratios.append(metric_value(chosen, metric) / floor)
        arbitrary_ratios.append(metric_value(arbitrary, metric) / floor)
        # Geofencing: does a compliant path exist, and do we pick one?
        compliant = [path for path in candidates
                     if permits(geofence_policy, path)]
        if compliant:
            result.geofence_available += 1
            try:
                choice = order_paths(geofence_policy, candidates)[0]
            except (IndexError, NoPathError):
                continue
            if permits(geofence_policy, choice):
                result.geofence_compliant_choices += 1
    result.mean_paths_per_pair = (total_paths / result.pairs
                                  if result.pairs else 0.0)
    if policy_ratios:
        result.policy_vs_optimal = BoxStats.from_samples(policy_ratios)
        result.arbitrary_vs_optimal = BoxStats.from_samples(arbitrary_ratios)
    result.notes.append(
        "policy ratio must be 1.0 by construction; the arbitrary ratio "
        "shows what path-obliviousness costs")
    return result


def ablation_b_holds(ablation_b: PolicyQualityResult) -> bool:
    """Whether policy selection was optimal for every pair and an
    arbitrary choice measurably worse."""
    return (abs(ablation_b.policy_vs_optimal.maximum - 1.0) < 1e-6
            and ablation_b.arbitrary_vs_optimal.mean > 1.1)


ABLATION_B = Battery(
    name="ablation-b", label="Ablation B",
    title="Ablation B — policy quality",
    claim="§2: many path choices enable multi-criteria optimization",
    measured=lambda ablation_b: (
        f"{ablation_b.mean_paths_per_pair:.1f} paths/pair; policy always "
        f"optimal, arbitrary choice "
        f"{ablation_b.arbitrary_vs_optimal.mean:.2f}× worse on CO2"),
    holds=ablation_b_holds, assemble=serial(run_ablation_policy),
)


# ---------------------------------------------------------------------------
# Ablation C — partial availability modes
# ---------------------------------------------------------------------------


@dataclass
class ModeSweepPoint:
    """Outcomes at one SCION-availability fraction."""

    fraction: float
    mode: str
    loaded: int
    blocked: int
    over_scion: int
    indicator: str


def ablation_c_point(fraction: float, mode: str, seed: int = 0,
                     n_origins: int = 8,
                     resources_per_origin: int = 2) -> ModeSweepPoint:
    """Run one (availability fraction, mode) cell in a fresh local world."""
    internet = Internet(local_testbed(), seed=seed, host_jitter_ms=0.05)
    client = internet.add_host("client", LOCAL_AS)
    resolver = Resolver(internet.loop, lookup_latency_ms=0.4)

    scion_origins = max(0, min(n_origins, round(fraction * n_origins)))
    origins = [f"site-{index}.example" for index in range(n_origins)]
    resources = []
    for index, origin in enumerate(origins):
        for item in range(resources_per_origin):
            resources.append(Resource(host=origin, path=f"/r{item}.png",
                                      size=8_000))
    page = WebPage(host=origins[0], path="/index.html", html_size=10_000,
                   resources=tuple(resources))
    for index, origin in enumerate(origins):
        host = internet.add_host(f"server-{index}", LOCAL_AS)
        scion_enabled = index < scion_origins
        HttpServer(host, content_for_origin(page, origin),
                   serve_tcp=True, serve_quic=scion_enabled)
        resolver.register_host(
            origin, ip_address=host.addr,
            scion_address=host.addr if scion_enabled else None)

    browser = BraveBrowser(client, resolver, rng=internet.network.rng)
    if mode == "strict":
        browser.extension.enable_strict_mode()
    result = internet.loop.run_process(browser.load(page))
    return ModeSweepPoint(
        fraction=fraction,
        mode=mode,
        loaded=sum(1 for outcome in result.outcomes if outcome.ok),
        blocked=result.blocked_count,
        over_scion=result.scion_count,
        indicator=result.indicator_state.value,
    )


def run_ablation_modes(fractions: tuple[float, ...] = (0.0, 0.25, 0.5,
                                                       0.75, 1.0),
                       seed: int = 0) -> list[ModeSweepPoint]:
    """Ablation C: sweep SCION availability under both modes.

    Note the main document's origin is SCION-enabled only when the
    fraction is > 0, so strict mode at fraction 0 fails the whole page —
    the paper's "websites may fail to load completely" (§4.2).
    """
    points = []
    for fraction in fractions:
        for mode in ("opportunistic", "strict"):
            points.append(ablation_c_point(fraction, mode, seed=seed))
    return points


def render_mode_sweep(points: list[ModeSweepPoint]) -> str:
    """Text table of the mode sweep."""
    lines = ["== Ablation C — partial availability (opportunistic vs "
             "strict) ==",
             f"{'fraction':>8} {'mode':>13} {'loaded':>6} {'blocked':>7} "
             f"{'scion':>5}  indicator"]
    for point in points:
        lines.append(f"{point.fraction:>8.2f} {point.mode:>13} "
                     f"{point.loaded:>6} {point.blocked:>7} "
                     f"{point.over_scion:>5}  {point.indicator}")
    return "\n".join(lines)


def ablation_c_holds(ablation_c: list[ModeSweepPoint]) -> bool:
    """Whether the mode sweep matched §4.2: opportunistic never blocks,
    strict fails the page with no SCION origins and blocks nothing when
    all are."""
    strict = {p.fraction: p for p in ablation_c if p.mode == "strict"}
    return (all(p.blocked == 0 for p in ablation_c
                if p.mode == "opportunistic")
            and strict[0.0].loaded == 0 and strict[1.0].blocked == 0)


ABLATION_C = Battery(
    name="ablation-c", label="Ablation C",
    title="Ablation C — availability modes",
    claim="§4.2: opportunistic always loads, strict trades availability "
          "for guarantees",
    measured=lambda _ablation_c: (
        "opportunistic: 0 blocked at all fractions; strict: blocks "
        "scale with unavailability, page fails at 0%"),
    holds=ablation_c_holds, assemble=serial(run_ablation_modes),
    render=render_mode_sweep,
)


# ---------------------------------------------------------------------------
# Ablation D — multipath bulk transfer
# ---------------------------------------------------------------------------


def run_ablation_multipath(size: int = 4_000_000) -> tuple[float, float]:
    """Ablation D: ``(single-path ms, two-path ms)`` for one bulk
    transfer across the dual-homed testbed."""
    def transfer(n_paths: int) -> float:
        topology, client_as, server_as = dual_homed_testbed()
        internet = Internet(topology, seed=3)
        client = internet.add_host("client", client_as)
        server = internet.add_host("server", server_as)
        BulkSink(server)
        paths = disjoint_paths(client.daemon.paths(server_as))
        return internet.loop.run_process(
            multipath_send(client, server.addr, 4443, size,
                           paths[:n_paths]))

    return transfer(1), transfer(2)


def render_multipath(times: tuple[float, float]) -> str:
    """Text table of the multipath transfer."""
    single, multi = times
    return (f"4 MB, dual-homed testbed (2 x 300 Mbps disjoint paths)\n"
            f"single path : {single:10.1f} ms\n"
            f"two paths   : {multi:10.1f} ms\n"
            f"speedup     : {single / multi:10.2f}x")


ABLATION_D = Battery(
    name="ablation-d", label="Ablation D",
    title="Ablation D — multipath bulk transfer",
    claim="§1: native inter-domain multipath aggregates capacity",
    measured=lambda times: (
        f"4 MB transfer: {times[0]:.0f} ms single path vs "
        f"{times[1]:.0f} ms over two disjoint paths "
        f"({times[0] / times[1]:.2f}x)"),
    holds=lambda times: times[1] < times[0],
    assemble=serial(run_ablation_multipath), render=render_multipath,
)


# ---------------------------------------------------------------------------
# Ablation E — beacon-store diversity
# ---------------------------------------------------------------------------


@dataclass
class DiversityPoint:
    """Path availability at one beacons-per-target budget."""

    beacons_per_target: int
    mean_paths_per_pair: float
    mean_latency_penalty: float  # best-path latency / full-diversity best


def run_ablation_diversity(budgets: tuple[int, ...] = (1, 2, 4, 8),
                           seed: int = 5, pairs: int = 20,
                           n_isds: int = 3) -> list[DiversityPoint]:
    """Ablation E: sweep the beacon store's per-target budget.

    The reference is the largest budget in ``budgets``: each smaller
    budget is scored by how many paths survive and how much best-path
    latency it gives up against the reference.
    """
    topology = random_internet(n_isds=n_isds, cores_per_isd=2,
                               leaves_per_isd=4, seed=seed)
    leaves = [info.isd_as for info in topology.ases() if not info.core]
    rng = random.Random(seed)
    sample_pairs = [tuple(rng.sample(leaves, 2)) for _ in range(pairs)]

    def evaluate(budget: int) -> tuple[float, dict]:
        control_plane = control_plane_snapshot(
            topology, beacons_per_target=budget)
        counts, best = [], {}
        for src, dst in sample_pairs:
            paths = combine_segments(src, dst, control_plane.store,
                                     core_ases=control_plane.core_ases)
            counts.append(len(paths))
            if paths:
                best[(src, dst)] = paths[0].metadata.latency_ms
        mean_count = sum(counts) / len(counts) if counts else 0.0
        return mean_count, best

    reference_budget = max(budgets)
    _reference_count, reference_best = evaluate(reference_budget)
    points = []
    for budget in budgets:
        mean_count, best = evaluate(budget)
        penalties = [best[pair] / reference_best[pair]
                     for pair in reference_best if pair in best]
        penalty = sum(penalties) / len(penalties) if penalties else 0.0
        points.append(DiversityPoint(
            beacons_per_target=budget,
            mean_paths_per_pair=mean_count,
            mean_latency_penalty=penalty,
        ))
    return points


def render_diversity(points: list[DiversityPoint]) -> str:
    """Text table of the diversity sweep."""
    lines = ["== Ablation E — beacon-store diversity ==",
             f"{'budget':>7} {'paths/pair':>11} {'latency penalty':>16}"]
    for point in points:
        lines.append(f"{point.beacons_per_target:>7} "
                     f"{point.mean_paths_per_pair:>11.1f} "
                     f"{point.mean_latency_penalty:>15.3f}x")
    return "\n".join(lines)


def ablation_e_holds(ablation_e: list[DiversityPoint]) -> bool:
    """Whether path diversity grew with the beacon-store budget: never
    shrinking, and more than doubling from budget 1 to budget 8."""
    by_budget = {p.beacons_per_target: p.mean_paths_per_pair
                 for p in ablation_e}
    counts = [by_budget[budget] for budget in sorted(by_budget)]
    return counts == sorted(counts) and by_budget[8] > 2 * by_budget[1]


ABLATION_E = Battery(
    name="ablation-e", label="Ablation E",
    title="Ablation E — beacon-store diversity",
    claim="§2: path diversity enables multi-criteria optimization "
          "(beacon-store budget is the knob)",
    measured=lambda ablation_e: (
        f"paths/pair grows {ablation_e[0].mean_paths_per_pair:.1f} → "
        f"{ablation_e[-1].mean_paths_per_pair:.1f} as the budget rises "
        f"{ablation_e[0].beacons_per_target} → "
        f"{ablation_e[-1].beacons_per_target}"),
    holds=ablation_e_holds, assemble=serial(run_ablation_diversity),
    render=render_diversity,
)
