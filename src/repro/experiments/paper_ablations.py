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
from collections.abc import Callable
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Any

from repro.core.browser.page import Resource, WebPage
from repro.core.geofence import Geofence
from repro.core.ppl.evaluator import metric_value, order_paths, permits
from repro.core.ppl.policies import co2_optimized, latency_optimized
from repro.experiments.harness import (PLT, Battery, BoxStats, Column,
                                       ExperimentResult, count, load_page,
                                       mean)
from repro.experiments.local_setup import (DEFAULT_CALIBRATION, LOCAL_WORLD,
                                           N_RESOURCES, build_local_world,
                                           load_once, make_page)
from repro.experiments.world import Origin, build
from repro.internet.build import Internet
from repro.internet.snapshot import control_plane_snapshot
from repro.quic.multipath import BulkSink, disjoint_paths, multipath_send
from repro.scion.combinator import combine_segments
from repro.topology.defaults import dual_homed_testbed
from repro.topology.generator import random_internet

# ---------------------------------------------------------------------------
# Ablation A — overhead decomposition
# ---------------------------------------------------------------------------

#: Each condition's calibration: the detour's costs zeroed one part at a
#: time (the IPC hop goes only with both ends).
ABLATION_A_CALIBRATIONS = {
    "full detour": DEFAULT_CALIBRATION,
    "free extension": replace(DEFAULT_CALIBRATION, extension_overhead_ms=0.0),
    "free proxy": replace(DEFAULT_CALIBRATION, proxy_processing_ms=0.0),
    "free both": replace(DEFAULT_CALIBRATION, extension_overhead_ms=0.0,
                         proxy_processing_ms=0.0, ipc_latency_ms=0.0),
    "no detour (BGP/IP)": DEFAULT_CALIBRATION,
}


def ablation_a_trial(condition: str, seed: int,
                     n_resources: int = N_RESOURCES) -> float:
    """One overhead-decomposition trial on the mixed local page."""
    return load_once(build_local_world(
        make_page("mixed SCION-IP", n_resources, seed), seed,
        calibration=ABLATION_A_CALIBRATIONS[condition],
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
    cells=tuple((condition,) for condition in ABLATION_A_CALIBRATIONS),
    trial=ablation_a_trial, base_seed=700, trials=15,
    columns=(PLT,),
    heading="Ablation A — extension/proxy overhead decomposition",
    description=lambda trials, n_resources=N_RESOURCES: (
        f"mixed local page, {n_resources} resources, {trials} trials; "
        "PLT in ms"),
    note="'free both' approximates the paper's predicted tighter browser "
         "integration: the detour overhead nearly disappears",
)


# ---------------------------------------------------------------------------
# Ablation B — path-policy selection quality
# ---------------------------------------------------------------------------


def ablation_b_trial(metric: str, seed: int, n_isds: int = 3,
                     pairs: int = 40) -> tuple[tuple, ...]:
    """Ablation B: one record per reachable random (src, dst) pair —
    ``(paths, policy_ratio, arbitrary_ratio, compliant_exists,
    compliant_chosen)``.

    Control-plane only (no packet simulation needed): generate a random
    Internet, run beaconing, combine paths for random pairs, and compare
    the policy's choice and an arbitrary one with the optimum by
    ``metric`` ("co2" or "latency"); then whether a geofence blocking the
    last ISD leaves a compliant path, and whether its policy picks one.
    """
    topology = random_internet(n_isds=n_isds, cores_per_isd=2,
                               leaves_per_isd=4, seed=seed)
    control_plane = control_plane_snapshot(topology)
    store, core_ases = control_plane.store, control_plane.core_ases
    all_ases = [info.isd_as for info in topology.ases()]
    rng = random.Random(seed)
    policy = co2_optimized() if metric == "co2" else latency_optimized()
    geofence_policy = Geofence(blocked_isds={n_isds}).to_policy()
    records = []
    for _ in range(pairs):
        src, dst = rng.sample(all_ases, 2)
        candidates = combine_segments(src, dst, store, core_ases=core_ases)
        if not candidates:
            continue
        floor = max(min(metric_value(path, metric) for path in candidates),
                    1e-9)
        chosen = order_paths(policy, candidates)[0]
        arbitrary = rng.choice(candidates)
        fenced = order_paths(geofence_policy, candidates)
        records.append((len(candidates), metric_value(chosen, metric) / floor,
                        metric_value(arbitrary, metric) / floor, bool(fenced),
                        bool(fenced) and permits(geofence_policy, fenced[0])))
    return tuple(records)


def _per_pair(index: int, reduce: Callable[[list], Any]):
    """A column reducer: ``reduce`` over one field of every pair record
    of every trial."""
    return lambda rows: reduce([pair[index] for row in rows for pair in row])


def ablation_b_holds(ablation_b: ExperimentResult) -> bool:
    """Whether policy selection was optimal for every pair and an
    arbitrary choice measurably worse."""
    return all(abs(cell.policy_vs_optimal.maximum - 1.0) < 1e-6
               and cell.arbitrary_vs_optimal.mean > 1.1
               for cell in ablation_b.cells.values())


ABLATION_B = Battery(
    name="ablation-b", label="Ablation B",
    title="Ablation B — policy quality",
    claim="§2: many path choices enable multi-criteria optimization",
    measured=lambda ablation_b: (
        f"{ablation_b.cell('co2').mean_paths_per_pair:.1f} paths/pair; "
        f"policy always optimal, arbitrary choice "
        f"{ablation_b.cell('co2').arbitrary_vs_optimal.mean:.2f}× worse on "
        f"CO2"),
    holds=ablation_b_holds,
    cells=(("co2",),), trial=ablation_b_trial, base_seed=42, trials=1,
    # One row per trial: a record per reachable pair.
    columns=(
        Column("pairs", None, lambda rows: sum(map(len, rows)),
               fmt="pairs={pairs}"),
        Column("mean_paths_per_pair", None, _per_pair(0, mean),
               fmt="paths/pair={mean_paths_per_pair:.1f}"),
        Column("policy_vs_optimal", None,
               _per_pair(1, BoxStats.from_samples),
               fmt="{label} policy/optimal", unit=""),
        Column("arbitrary_vs_optimal", None,
               _per_pair(2, BoxStats.from_samples),
               fmt="{label} arbitrary/optimal", unit=""),
        Column("geofence_available", None, _per_pair(3, count)),
        Column("geofence_compliant_choices", None, _per_pair(4, count),
               fmt="geofence compliant={geofence_compliant_choices}/"
                   "{geofence_available}")),
    description=lambda trials, n_isds=3, pairs=40: (
        f"{pairs} random src-dst pairs/trial on a {n_isds}-ISD random "
        f"Internet, {trials} trial(s); chosen path's metric / the optimum "
        f"(1.0 = optimal); the geofence blocks ISD {n_isds}"),
    note="policy ratio must be 1.0 by construction; the arbitrary ratio "
         "shows what path-obliviousness costs",
    cells_key="metrics",
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


#: The laptop with one origin per site (each cell supplies them: the
#: first ``fraction`` also speak SCION); the browser's mode is the
#: cell's other half.
AVAILABILITY_WORLD = replace(
    LOCAL_WORLD, origins=(),
    calibration=replace(DEFAULT_CALIBRATION, host_jitter_ms=0.05))


def ablation_c_point(fraction: float, mode: str, seed: int = 0,
                     n_origins: int = 8,
                     resources_per_origin: int = 2) -> ModeSweepPoint:
    """Run one (availability fraction, mode) cell in a fresh local world."""
    scion_origins = max(0, min(n_origins, round(fraction * n_origins)))
    origins = tuple(Origin(f"site-{index}.example", f"server-{index}",
                           "laptop", quic=index < scion_origins)
                    for index in range(n_origins))
    page = WebPage(host=origins[0].name, path="/index.html",
                   html_size=10_000,
                   resources=tuple(Resource(host=origin.name,
                                            path=f"/r{item}.png", size=8_000)
                                   for origin in origins
                                   for item in range(resources_per_origin)))
    world = build(replace(AVAILABILITY_WORLD, origins=origins, page=page,
                          strict=mode == "strict"), seed)
    result = load_page(world)
    return ModeSweepPoint(fraction, mode,
                          sum(1 for outcome in result.outcomes if outcome.ok),
                          result.blocked_count, result.scion_count,
                          result.indicator_state.value)


def ablation_c_holds(ablation_c: ExperimentResult) -> bool:
    """Whether the mode sweep matched §4.2: opportunistic never blocks,
    strict fails the page with no SCION origins and blocks nothing when
    all are."""
    return (all(cell.blocked == 0 for cell in ablation_c.cells.values()
                if cell.mode == "opportunistic")
            and ablation_c.cell(0.0, "strict").loaded == 0
            and ablation_c.cell(1.0, "strict").blocked == 0)


ABLATION_C = Battery(
    name="ablation-c", label="Ablation C",
    title="Ablation C — availability modes",
    claim="§4.2: opportunistic always loads, strict trades availability "
          "for guarantees",
    measured=lambda _ablation_c: (
        "opportunistic: 0 blocked at all fractions; strict: blocks "
        "scale with unavailability, page fails at 0%"),
    holds=ablation_c_holds,
    cells=tuple((fraction, mode) for fraction in (0.0, 0.25, 0.5, 0.75, 1.0)
                for mode in ("opportunistic", "strict")),
    trial=ablation_c_point, trials=1,
    # One row per trial: a ModeSweepPoint, read by field name.
    columns=(
        Column("fraction", reduce=itemgetter(0), fmt="{fraction:>8.2f}",
               heading="fraction"),
        Column("mode", reduce=itemgetter(0), fmt="{mode:>13}",
               heading=f"{'mode':>13}"),
        Column("loaded", reduce=count, fmt="{loaded:>6}", heading="loaded"),
        Column("blocked", reduce=count, fmt="{blocked:>7}",
               heading="blocked"),
        Column("over_scion", reduce=count, fmt="{over_scion:>5}",
               heading="scion"),
        Column("indicator", reduce=lambda states: " / ".join(
            dict.fromkeys(states)), fmt=" {indicator}",
               heading=" indicator")),
    description=lambda trials, n_origins=8, resources_per_origin=2: (
        f"{n_origins} origins x {resources_per_origin} resources, the "
        f"first `fraction` of them SCION-enabled; {trials} trial(s)/cell, "
        "counts summed over trials"),
    note="the main document's origin speaks SCION only above fraction 0, "
         "so strict mode fails the whole page there — §4.2's \"websites "
         "may fail to load completely\"; opportunistic never blocks",
    cells_key="cells",
)


# ---------------------------------------------------------------------------
# Ablation D — multipath bulk transfer
# ---------------------------------------------------------------------------

#: Ablation D's transfer size in bytes.
MULTIPATH_SIZE = 4_000_000


def ablation_d_trial(n_paths: int, seed: int,
                     size: int = MULTIPATH_SIZE) -> float:
    """Ablation D: how long (ms) one bulk transfer of ``size`` bytes
    takes over ``n_paths`` link-disjoint paths of the dual-homed
    testbed."""
    topology, client_as, server_as = dual_homed_testbed()
    internet = Internet(topology, seed=seed)
    client = internet.add_host("client", client_as)
    server = internet.add_host("server", server_as)
    BulkSink(server)
    paths = disjoint_paths(client.daemon.paths(server_as))
    return internet.loop.run_process(
        multipath_send(client, server.addr, 4443, size, paths[:n_paths]))


def _speedup(ablation_d: ExperimentResult) -> float:
    """Mean single-path over mean two-path transfer time."""
    return (ablation_d.cell(1).transfer_ms.mean
            / ablation_d.cell(2).transfer_ms.mean)


ABLATION_D = Battery(
    name="ablation-d", label="Ablation D",
    title="Ablation D — multipath bulk transfer",
    claim="§1: native inter-domain multipath aggregates capacity",
    measured=lambda ablation_d: (
        f"{ablation_d.params.get('size', MULTIPATH_SIZE) / 1e6:g} MB "
        f"transfer: {ablation_d.cell(1).transfer_ms.mean:.0f} ms single "
        f"path vs {ablation_d.cell(2).transfer_ms.mean:.0f} ms over two "
        f"disjoint paths ({_speedup(ablation_d):.2f}x)"),
    holds=lambda ablation_d: _speedup(ablation_d) > 1.0,
    cells=((1,), (2,)), trial=ablation_d_trial, base_seed=3, trials=1,
    columns=(Column("transfer_ms", None, fmt="{label}"),),
    description=lambda trials, size=MULTIPATH_SIZE: (
        f"{size / 1e6:g} MB, dual-homed testbed (2 x 300 Mbps disjoint "
        f"paths), {trials} trial(s)/path count; transfer time in ms"),
    note="two link-disjoint paths aggregate their capacity: the transfer "
         "finishes sooner than over one",
    cells_key="paths",
    cell_label=lambda key: f"{key[0]} path" + "s" * (key[0] > 1),
    footer=lambda ablation_d: [f"speedup: {_speedup(ablation_d):.2f}x"],
)


# ---------------------------------------------------------------------------
# Ablation E — beacon-store diversity
# ---------------------------------------------------------------------------

#: Ablation E's beacon-store budgets; the largest is the reference.
BUDGETS = (1, 2, 4, 8)


def ablation_e_trial(budget: int, seed: int, budgets: tuple[int, ...] =
                     BUDGETS, pairs: int = 20,
                     n_isds: int = 3) -> tuple[int, float, float]:
    """Ablation E: ``(budget, mean paths per pair, mean latency
    penalty)`` for one beacon store's per-target budget.

    The reference is the largest budget in ``budgets``: a budget is
    scored by how many paths survive for random leaf pairs and how much
    best-path latency it gives up against the reference.
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
        return sum(counts) / len(counts) if counts else 0.0, best

    _reference_count, reference_best = evaluate(max(budgets))
    mean_count, best = evaluate(budget)
    penalties = [best[pair] / reference_best[pair]
                 for pair in reference_best if pair in best]
    return (budget, mean_count,
            sum(penalties) / len(penalties) if penalties else 0.0)


def ablation_e_holds(ablation_e: ExperimentResult) -> bool:
    """Whether path diversity grew with the beacon-store budget: never
    shrinking, and more than doubling from the smallest budget run to
    the largest."""
    counts = [cell.mean_paths_per_pair
              for _budget, cell in sorted(ablation_e.cells.items())]
    return counts == sorted(counts) and counts[-1] > 2 * counts[0]


def _diversity_measured(ablation_e: ExperimentResult) -> str:
    first, last = (ablation_e.cells[pick(ablation_e.cells)]
                   for pick in (min, max))
    return (f"paths/pair grows {first.mean_paths_per_pair:.1f} → "
            f"{last.mean_paths_per_pair:.1f} as the budget rises "
            f"{first.beacons_per_target} → {last.beacons_per_target}")


ABLATION_E = Battery(
    name="ablation-e", label="Ablation E",
    title="Ablation E — beacon-store diversity",
    claim="§2: path diversity enables multi-criteria optimization "
          "(beacon-store budget is the knob)",
    measured=_diversity_measured, holds=ablation_e_holds,
    cells=tuple((budget,) for budget in BUDGETS), trial=ablation_e_trial,
    base_seed=5, trials=1,
    # One row per trial: (budget, mean paths per pair, latency penalty).
    columns=(
        Column("beacons_per_target", 0, itemgetter(0),
               fmt="{beacons_per_target:>7}", heading=f"{'budget':>7}"),
        Column("mean_paths_per_pair", 1, mean,
               fmt="{mean_paths_per_pair:>11.1f}",
               heading=f"{'paths/pair':>11}"),
        Column("mean_latency_penalty", 2, mean,
               fmt="{mean_latency_penalty:>15.3f}x",
               heading=f"{'latency penalty':>16}")),
    description=lambda trials, budgets=BUDGETS, pairs=20, n_isds=3: (
        f"{pairs} random leaf pairs/trial on a {n_isds}-ISD random "
        f"Internet, {trials} trial(s)/budget; latency penalty = best "
        f"path's latency / the best at budget {max(budgets)}"),
    note="expected shape: paths per pair grow with the budget, more than "
         "doubling from the smallest to the largest; a smaller store "
         "never finds a faster path (penalty >= 1x)",
    cells_key="budgets",
)
