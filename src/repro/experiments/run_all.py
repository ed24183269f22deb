"""Regenerate every table and figure and write EXPERIMENTS.md.

Usage::

    python -m repro.experiments.run_all [output_path] [--workers N]
                                        [--obs] [--resilience] [--ablate]
                                        [--population] [--overload]

Runs the full evaluation at paper-scale trial counts (a few minutes) and
writes a paper-vs-measured report for Table 1, Figures 3/5/6, and the
three ablations. Trial batteries fan out over ``--workers`` processes
(default: all cores, or the ``REPRO_WORKERS`` env var) and all batteries
are submitted up front so they overlap in one shared pool; results are
identical to a serial run.

``--resilience`` additionally runs the resilience battery
(time-to-recover and PLT under repeated link churn, revocation
dissemination on vs off × opportunistic/strict — the self-healing-paths
experiment). It multiplies wall time by long simulated sessions, so it
is opt-in like ``--obs``.

``--obs`` additionally re-runs one representative traced load per
experiment setup and exports the span/metric/waterfall JSON artifacts to
``results/obs/`` (render them with ``python -m repro.obs report``).
Tracing is inert, so the artifacts describe exactly the loads the
batteries measured.

``--population`` additionally runs the population battery
(:mod:`repro.experiments.population`): a ``REPRO_POPULATION_USERS``-user
world (default 1,000) browsing a Zipf site catalog through per-user
sessions, once per transport mode, reporting tail PLT, path-server QPS,
daemon cache hit rates, SKIP-proxy pool contention, and per-AS link
utilization. The report lands in the generated EXPERIMENTS.md and the
machine-readable version in ``results/population.json``. It multiplies
wall time by city-scale simulated load, so it is opt-in like ``--obs``.

``--overload`` additionally runs the overload battery
(:mod:`repro.experiments.overload`): a flash crowd — every user slams
the site of the day at once — replayed twice, with the admission
control / retry-budget / breaker protections on and off. The report
contrasts the protections-off retry storm (metastable overload that
outlives the spike) against protections-on graceful degradation
(bounded queues, explicit shedding, goodput preserved, fast drain).
The block lands in the generated EXPERIMENTS.md and the
machine-readable version in ``results/overload.json``.

``--ablate`` additionally runs the full component-ablation sweep
(:mod:`repro.experiments.ablations2`): baseline plus one leave-one-out
run per registered component, with exact contract verification. The
ranked report lands in the generated EXPERIMENTS.md and the machine-
readable version in ``results/ablations2.json``. The sweep always runs
its batteries sequentially at ``workers=1`` so per-component wall-clock
deltas are honest, which also keeps it off the shared pool.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.ablations import (
    render_diversity,
    render_mode_sweep,
    run_ablation_diversity,
    run_ablation_modes,
    run_ablation_policy,
    submit_ablation_overhead,
)
from repro.internet.build import Internet
from repro.quic.multipath import BulkSink, disjoint_paths, multipath_send
from repro.topology.defaults import dual_homed_testbed
from repro.experiments.fault_battery import (
    FALLBACK_SCENARIOS,
    submit_fault_battery,
)
from repro.experiments.harness import resolve_workers
from repro.experiments.local_setup import submit_figure3
from repro.experiments.resilience_battery import (
    resilience_holds,
    submit_resilience_battery,
)
from repro.experiments.overload import submit_overload
from repro.experiments.population import submit_population
from repro.experiments.remote_setup import submit_figure5, submit_figure6
from repro.experiments.table1 import run_table1

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by ``python -m repro.experiments.run_all``. All measurements
come from the deterministic simulator (seeds fixed); absolute numbers
are not expected to match the authors' physical testbeds, the
*qualitative shapes* are (see DESIGN.md §4 for the per-experiment
claims). Trial batteries for all figures are submitted to one shared
worker pool up front and overlap during generation; collection order is
deterministic, so the report is byte-identical to a serial run.
Running with ``--obs`` additionally writes traced-load JSON artifacts
(span trees, metrics, PLT waterfalls) to ``results/obs/`` — inspect
them with ``python -m repro.obs report <artifact>`` or diff two runs
with ``python -m repro.obs diff``. Execution-mode knobs
(``REPRO_WORKERS``, ``REPRO_FASTPATH``, …) never change fault-free
samples — the consolidated knob table with defaults and overrides lives
in README "Runtime knobs".

| Experiment | Paper's claim | Measured shape | Holds |
|---|---|---|---|
"""


#: Static postscript documenting the hybrid-fidelity fast path's A/B
#: harness (wall-clock speedups are machine-dependent, so the generated
#: report documents the contract and the commands, not the timings).
FASTPATH_NOTE = """
## Fast-path A/B — hybrid fidelity vs. packet-level oracle

The figures above are generated with the hybrid-fidelity fast path
active (the default): reliable-transport transfers on fault-free,
loss-free routes with no standing queue complete analytically — one
event per burst and finite hop, queueing FIFO at any transmitter they
find busy — with random jitter draws replaced by their expected values
(per-seed PLTs therefore differ from the packet-level oracle by design
while distribution medians track; fault-injected batteries — chaos,
resilience — always run pure packet-level and are unaffected). Set
``REPRO_FASTPATH=0`` to regenerate this report against the
bit-identical pre-fast-path oracle.

The paired A/B harness quantifies the approximation per figure
condition with host jitter zeroed in both arms, asserting the
documented <1% PLT error bound (``repro.simnet.fastpath
.PLT_ERROR_BOUND``) for every seed of every condition::

    python -m repro.experiments.fastpath_ab --selftest   # CI gate
    python -m repro.experiments.fastpath_ab --trials 5   # wider seeds
    python -m repro.experiments.fastpath_ab --jittered   # median drift

Figure-3 conditions match the oracle to floating-point round-off;
remote conditions carry a few thousandths of a percent from
jitter-expectation round-off. The same gate runs three contended
worlds at distribution level — a 60-user city (mean within 1 %,
p50/p95/p99 within 2 % of the oracle) and both flash-crowd arms (mean
within 3 %, the same loads succeeding +- 5); DESIGN.md §5.6 has the
rule and the measurements behind those bounds. Wall-clock savings are
what the benchmark's ``fig3_local`` and ``fig3_oracle`` workloads
measure (``python -m bench``: the same inputs with the fast path on
and off): typically ~4x per-trial speedup and ~4x fewer loop events on
fault-free figure-3 trials.
"""


#: Static postscript documenting the population battery; the numbers
#: live in the generated report block above it.
POPULATION_NOTE = """
## Population battery — how to read the block above

``repro.workload`` generates the load: a Zipf-popular site catalog with
per-site resource profiles, per-user session plans (think time, tab
parallelism, revisit locality that re-hits warm daemon caches and HTTP
pools), and an open-loop/diurnal arrival curve — every stream on its
own string-seeded RNG, so the same seed replays the same city
bit-for-bit at any worker count. Each transport mode runs the
identical session plans; only the browser's network integration
changes, so per-mode deltas are attributable to the transport stack
alone.

Columns: p50/p95/p99 are the per-mode PLT percentiles across every
completed load; ``PS qps`` is path-server lookup rate over the
simulated session window; ``dmn hit`` is the per-user SCION daemon
cache hit rate (revisit locality is what keeps it high); ``pool q`` /
``q ms`` count HTTP requests that queued behind the per-origin
connection cap and the simulated time they spent queued — the
SKIP-proxy contention signal. The busiest-ASes line aggregates bytes on
each AS's adjacent links (both endpoints of inter-AS links count).

Commands::

    python -m repro.experiments.population --selftest    # <10 s CI gate
    python -m repro.experiments.run_all --population     # this report
    python -m repro.experiments.population --users 200 --json out.json

``REPRO_POPULATION_USERS`` scales the city; ``SessionConfig(locality=False)``
turns revisit locality off. The machine-readable battery lands in
``results/population.json``; the simulator's throughput on a city and
the simulated PLT tail are the benchmark's ``city`` workload
(``loads_per_s`` / ``sim_plt_ms_p95`` of ``python -m bench --workload city``).

Where the simulator's own time goes on a city (the roadmap asked
whether world build dominates — it does not). On the benchmark's
60-user ``city`` workload (``python -m bench --workload city --trace 1``)
build is about 1 % of a repetition (0.03 s of 3.2 s) and roughly 400 k
of the 527 k loop events are per-hop forwarding. Before routers kept a
table of verified hop fields, about a third of the wall clock was them
recomputing HMACs: 241,406 ``verify_hop_mac`` calls over 173,434 packets to
check 12 distinct hop fields. Routers now verify each distinct hop
field once and check only the AS match and the expiry per packet; the
router change alone took a repetition from 3.4 s to 2.3 s, the
flattened link path to 2.1 s, with every simulated number unchanged.
"""


#: Static postscript documenting the overload battery; the numbers live
#: in the generated report block above it.
OVERLOAD_NOTE = """
## Overload battery — how to read the block above

Both arms replay the identical flash crowd (a 10× correlated spike on
the "site of the day" from ``repro.workload.arrivals``, string-seeded
so the same seed replays bit-for-bit at any worker count); only the
protection knobs differ. ``protections-off`` pins ``REPRO_ADMISSION=0``,
``REPRO_RETRY_BUDGET=0``, and ``REPRO_BREAKER=0`` — naive unbounded
queues and unbounded client retries — and exhibits the classic
metastable failure: timeouts ignite retries, retries sustain the
overload after the spike has passed, and the post-spike p99 dwarfs the
spike itself. ``protections-on`` keeps the defaults: bounded queues
with admission control in the per-host daemons and the shared path
server (serving stale paths where a cached-but-quarantined entry
exists, shedding with an explicit ``overloaded`` outcome otherwise),
plus a per-client retry token bucket with seeded backoff jitter in the
SKIP proxy.

Columns: ``goodput`` is the burst-phase SLO-goodput rate relative to
the pre-spike rate; the p99 columns split page loads by phase
(pre-spike / in-burst / ended after the spike); ``ampl`` is total
fetch attempts per first attempt (retry amplification); ``shed`` the
fraction of admission-gated requests turned away; ``drain`` how long
past the end of the spike the last backlogged load lingered.

Commands::

    python -m repro.experiments.overload --selftest      # <10 s CI gate
    python -m repro.experiments.run_all --overload       # this report
    python -m repro.experiments.overload --trials 4 --json out.json

``REPRO_ADMISSION`` / ``REPRO_RETRY_BUDGET`` gate the protections (both
also registered as ablation components, and both bit-identical no-ops
on fault-free runs). The machine-readable battery lands in
``results/overload.json``; the shed fraction and the simulated PLT tail
of this crowd are the benchmark's ``flash_crowd`` workload
(``scion.admission.shed_share`` / ``sim.plt_ms_p95`` of
``python -m bench --workload flash_crowd --trace 1``).
"""


#: Static postscript documenting the component-ablation harness; the
#: numbers live in the generated report block above it, this documents
#: the contracts and the commands.
ABLATION_NOTE = """
## Component ablations — how to read the block above

Every optional runtime component (fast path, snapshot cache, revocation
dissemination, circuit breaker, tracing, admission control, retry
budget) is registered declaratively in
``repro.experiments.ablations2`` with its toggle, its correctness
contract, and the metrics it is expected to move. The harness runs a
baseline plus one leave-one-out run per component and ranks components
by how much the metrics move (`score` = max |delta| over the declared
metrics). ``error`` rows mean the toggle itself failed — they are never
silently dropped.

Contracts are verified exactly, not eyeballed: components promising
``bit_identical`` must reproduce the baseline's (PLT, events) tuples to
the bit when disabled; the fast path's ``statistically_equivalent``
contract is checked against the documented <1% jitter-free PLT error
bound. Components whose effect is masked by another layer declare a
measurement *context* (the circuit breaker measures with revocation
dissemination pinned off, since with dissemination on failures never
reach the proxy).

Commands::

    python -m repro.experiments.ablations2 --selftest   # <10 s CI gate
    python -m repro.experiments.run_all --ablate        # this report
    python -m repro.experiments.ablations2 --json out.json

The machine-readable sweep lands in ``results/ablations2.json``; the
CLI prints its own wall-clock (``(sweep took N s)``).
"""


def block(title: str, body: str) -> str:
    """One fenced result section."""
    return f"\n## {title}\n\n```\n{body}\n```\n"


def ablation_a_holds(ablation_a) -> bool:
    """Whether §5.2's prediction held: with the extension and the proxy
    both free, the detour costs about what no detour does."""
    return (ablation_a.median("free both")
            < 1.6 * ablation_a.median("no detour (BGP/IP)"))


def ablation_b_holds(ablation_b) -> bool:
    """Whether policy selection was optimal for every pair and an
    arbitrary choice measurably worse."""
    return (abs(ablation_b.policy_vs_optimal.maximum - 1.0) < 1e-6
            and ablation_b.arbitrary_vs_optimal.mean > 1.1)


def ablation_c_holds(ablation_c) -> bool:
    """Whether the mode sweep matched §4.2: opportunistic never blocks,
    strict fails the page with no SCION origins and blocks nothing when
    all are."""
    strict = {p.fraction: p for p in ablation_c if p.mode == "strict"}
    return (all(p.blocked == 0 for p in ablation_c
                if p.mode == "opportunistic")
            and strict[0.0].loaded == 0 and strict[1.0].blocked == 0)


def ablation_e_holds(ablation_e) -> bool:
    """Whether path diversity grew with the beacon-store budget: never
    shrinking, and more than doubling from budget 1 to budget 8."""
    by_budget = {p.beacons_per_target: p.mean_paths_per_pair
                 for p in ablation_e}
    counts = [by_budget[budget] for budget in sorted(by_budget)]
    return counts == sorted(counts) and by_budget[8] > 2 * by_budget[1]


def chaos_holds(chaos) -> bool:
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


def population_holds(population_result) -> bool:
    """Whether the population battery matched its expected shape: every
    mode completed loads without failures (the world is fault-free),
    and revisit locality kept the SCION modes' daemon caches warm."""
    for mode, samples in population_result.samples.items():
        if any(s.loads == 0 or s.failed_loads > 0 for s in samples):
            return False
        if mode != "BGP/IP-only" and \
                any(s.daemon_cache_hit_rate <= 0.0 for s in samples):
            return False
    return True


def overload_holds(overload_result) -> bool:
    """Whether the overload battery matched §4.2's graceful-degradation
    shape: protections off, the retry storm amplifies load and outlives
    the spike; protections on, queues stay bounded, shedding is explicit,
    and burst goodput beats the naive arm."""
    from repro.experiments.overload import DEFAULT_CONFIG
    from repro.workload.arrivals import burst_window_ms

    spike_start, spike_end = burst_window_ms(DEFAULT_CONFIG.arrival)
    spike_ms = spike_end - spike_start
    for off in overload_result.samples["protections-off"]:
        if off.retry_amplification <= 2.0 or off.time_to_drain_ms <= spike_ms:
            return False
        if off.requests_shed != 0:
            return False
    for on in overload_result.samples["protections-on"]:
        if on.requests_shed == 0 or on.time_to_drain_ms > spike_ms:
            return False
    on_goodput = [s.goodput_ratio
                  for s in overload_result.samples["protections-on"]]
    off_goodput = [s.goodput_ratio
                   for s in overload_result.samples["protections-off"]]
    return (sum(on_goodput) / len(on_goodput)
            > sum(off_goodput) / len(off_goodput))


def write_overload_report(overload_result,
                          directory: str = "results") -> str:
    """Persist the machine-readable overload battery."""
    import json
    import pathlib

    target = pathlib.Path(directory) / "overload.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(overload_result.to_json(), indent=2,
                                 sort_keys=True) + "\n")
    return str(target)


def write_population_report(population_result,
                            directory: str = "results") -> str:
    """Persist the machine-readable population battery."""
    import json
    import pathlib

    target = pathlib.Path(directory) / "population.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(population_result.to_json(), indent=2,
                                 sort_keys=True) + "\n")
    return str(target)


def _multipath_measurement(size: int = 4_000_000) -> tuple[float, float]:
    """(single-path ms, two-path ms) for the Ablation D transfer."""
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


def write_obs_artifacts(directory: str = "results/obs") -> list[str]:
    """Export one traced representative load per experiment setup.

    Returns the written artifact paths. Seeds match the batteries' base
    seeds, so each artifact's waterfall explains the first trial of the
    corresponding figure.
    """
    from repro.experiments.fault_battery import traced_fault_load
    from repro.experiments.local_setup import traced_figure3_load
    from repro.experiments.remote_setup import NEAR_ORIGIN, traced_remote_load
    from repro.obs.export import build_artifact, write_artifact

    written: list[str] = []

    world, plt_ms = traced_figure3_load()
    written.append(str(write_artifact(
        f"{directory}/figure3.json",
        build_artifact(world.tracer, label="figure3/mixed SCION-IP/seed100",
                       extra={"plt_ms": plt_ms}))))

    world, plt_ms = traced_remote_load(seed=500)
    written.append(str(write_artifact(
        f"{directory}/figure5.json",
        build_artifact(world.tracer,
                       label="figure5/single origin / SCION/seed500",
                       extra={"plt_ms": plt_ms}))))

    world, plt_ms = traced_remote_load(primary=NEAR_ORIGIN, seed=600)
    written.append(str(write_artifact(
        f"{directory}/figure6.json",
        build_artifact(world.tracer,
                       label="figure6/single origin / SCION/seed600",
                       extra={"plt_ms": plt_ms}))))

    world, result = traced_fault_load("link-flap", seed=500)
    written.append(str(write_artifact(
        f"{directory}/chaos.json",
        build_artifact(world.tracer, label="chaos/link-flap/seed500",
                       extra={"plt_ms": result.plt_ms}))))
    return written


def write_ablation_report(directory: str = "results") -> "object":
    """Run the full component-ablation sweep and persist the JSON.

    Returns the :class:`~repro.experiments.ablations2.AblationReport`.
    Runs after the battery pool has drained (sequential, ``workers=1``)
    so the per-component wall-clock deltas are not polluted by
    concurrent load.
    """
    import json
    import pathlib

    from repro.experiments.ablations2 import full_config, run_ablations

    report = run_ablations(full_config(workers=1))
    target = pathlib.Path(directory) / "ablations2.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report.to_json(), indent=2) + "\n")
    return report


def main(output_path: str = "EXPERIMENTS.md",
         workers: int | None = None, obs: bool = False,
         resilience: bool = False, ablate: bool = False,
         population: bool = False, overload: bool = False) -> None:
    workers = resolve_workers(workers)
    started = time.time()
    # Battery-level parallelism: every condition battery of every figure
    # goes to the shared pool up front, so trials from different
    # batteries interleave across workers instead of each battery
    # draining before the next starts. Collection below is in the same
    # deterministic order as before, so the report is byte-identical.
    pending_figure3 = submit_figure3(trials=30, workers=workers)
    pending_figure5 = submit_figure5(trials=20, workers=workers)
    pending_figure6 = submit_figure6(trials=20, workers=workers)
    pending_ablation_a = submit_ablation_overhead(trials=15, workers=workers)
    pending_chaos = submit_fault_battery(trials=10, workers=workers)
    pending_resilience = (submit_resilience_battery(trials=6,
                                                    workers=workers)
                          if resilience else None)
    # One city-scale trial per transport mode; the three modes overlap
    # on the shared pool with everything above.
    pending_population = (submit_population(trials=1, workers=workers)
                          if population else None)
    # Two seeds per arm of the flash-crowd contrast; all four trials
    # overlap on the shared pool with everything above.
    pending_overload = (submit_overload(trials=2, workers=workers)
                        if overload else None)
    # The serial pieces run in this process while the pool grinds.
    table1 = run_table1()
    ablation_b = run_ablation_policy(metric="co2", seed=42, pairs=40)
    ablation_c = run_ablation_modes()
    mp_single, mp_multi = _multipath_measurement()
    ablation_e = run_ablation_diversity()
    figure3 = pending_figure3.collect()
    figure5 = pending_figure5.collect()
    figure6 = pending_figure6.collect()
    ablation_a = pending_ablation_a.collect()
    chaos = pending_chaos.collect()
    resilience_result = (pending_resilience.collect()
                         if pending_resilience else None)
    population_result = (pending_population.collect()
                         if pending_population else None)
    overload_result = (pending_overload.collect()
                       if pending_overload else None)
    # The ablation sweep runs after the pool drains: it times each
    # leave-one-out battery sequentially, and honest wall-clock deltas
    # need an otherwise-idle machine.
    ablation_report = write_ablation_report() if ablate else None

    f3_overhead = figure3.median("SCION-only") - figure3.median("BGP/IP-only")
    f5_gain = (figure5.median("single origin / IPv4-6")
               - figure5.median("single origin / SCION"))
    f6_loss = (figure6.median("single origin / SCION")
               - figure6.median("single origin / IPv4-6"))
    strict_ok = figure3.median("strict-SCION") < figure3.median("SCION-only")

    summary_rows = [
        ("Table 1", "OS suits performance/quality; app suits everything; "
         "user decisive for privacy/ESG/economics; loss+MTU abstracted "
         "from user",
         "decision model derives the same matrix from §2's prose rules",
         "yes" if table1.all_hold else "NO"),
        ("Figure 3", "SCION-only ≈ mixed ≈ baseline + ~100 ms; "
         "strict shorter (blocks skip the proxy)",
         f"overhead {f3_overhead:.0f} ms; strict "
         f"{figure3.median('strict-SCION'):.0f} ms vs SCION-only "
         f"{figure3.median('SCION-only'):.0f} ms",
         "yes" if 50 <= f3_overhead <= 200 and strict_ok else "NO"),
        ("Figure 5", "remote page loads significantly faster over SCION "
         "(path-aware low-latency path)",
         f"SCION {figure5.median('single origin / SCION'):.0f} ms vs "
         f"IPv4/6 {figure5.median('single origin / IPv4-6'):.0f} ms "
         f"(gain {f5_gain:.0f} ms)",
         "yes" if f5_gain > 0 else "NO"),
        ("Figure 6", "AS-local page: SCION adds a small overhead, "
         "paths similar",
         f"SCION {figure6.median('single origin / SCION'):.0f} ms vs "
         f"IPv4/6 {figure6.median('single origin / IPv4-6'):.0f} ms "
         f"(overhead {f6_loss:.0f} ms)",
         "yes" if 0 < f6_loss else "NO"),
        ("Ablation A", "§5.2: tighter integration removes the overhead",
         f"'free both' {ablation_a.median('free both'):.0f} ms ≈ "
         f"baseline {ablation_a.median('no detour (BGP/IP)'):.0f} ms",
         "yes" if ablation_a_holds(ablation_a) else "NO"),
        ("Ablation B", "§2: many path choices enable multi-criteria "
         "optimization",
         f"{ablation_b.mean_paths_per_pair:.1f} paths/pair; policy always "
         f"optimal, arbitrary choice {ablation_b.arbitrary_vs_optimal.mean:.2f}×"
         " worse on CO2",
         "yes" if ablation_b_holds(ablation_b) else "NO"),
        ("Ablation C", "§4.2: opportunistic always loads, strict trades "
         "availability for guarantees",
         "opportunistic: 0 blocked at all fractions; strict: blocks "
         "scale with unavailability, page fails at 0%",
         "yes" if ablation_c_holds(ablation_c) else "NO"),
        ("Ablation D", "§1: native inter-domain multipath aggregates "
         "capacity",
         f"4 MB transfer: {mp_single:.0f} ms single path vs "
         f"{mp_multi:.0f} ms over two disjoint paths "
         f"({mp_single / mp_multi:.2f}x)",
         "yes" if mp_multi < mp_single else "NO"),
        ("Ablation E", "§2: path diversity enables multi-criteria "
         "optimization (beacon-store budget is the knob)",
         f"paths/pair grows {ablation_e[0].mean_paths_per_pair:.1f} → "
         f"{ablation_e[-1].mean_paths_per_pair:.1f} as the budget rises "
         f"{ablation_e[0].beacons_per_target} → "
         f"{ablation_e[-1].beacons_per_target}",
         "yes" if ablation_e_holds(ablation_e) else "NO"),
        ("Chaos battery", "§4.2: failures degrade gracefully — failover "
         "when an alternate path exists, opportunistic falls back to IP, "
         "strict blocks instead",
         f"link-flap: {chaos.cell('link-flap', 'opportunistic').failover} "
         f"failovers, 0 fallbacks; SCION outages: opportunistic recovers "
         f"{sum(chaos.cell(s, 'opportunistic').fallback for s in FALLBACK_SCENARIOS)}"
         f" fetches over IP, strict blocks "
         f"{sum(chaos.cell(s, 'strict').failed for s in FALLBACK_SCENARIOS)}",
         "yes" if chaos_holds(chaos) else "NO"),
    ]
    if resilience_result is not None:
        on = resilience_result.cell(True, "opportunistic")
        off = resilience_result.cell(False, "opportunistic")
        summary_rows.append((
            "Resilience battery", "§4.2: path awareness lets hosts heal "
            "around failures without waiting for them locally — "
            "revocation dissemination recovers sessions faster than "
            "timeout-driven discovery",
            f"TTR {on.ttr.mean / 1000:.1f} s (revocation on) vs "
            f"{off.ttr.mean / 1000:.1f} s (off); failed fetches "
            f"{on.failed_requests} vs {off.failed_requests} "
            "(opportunistic; strict matches)",
            "yes" if resilience_holds(resilience_result) else "NO"))
    if population_result is not None:
        opportunistic = population_result.samples["opportunistic-SCION"][0]
        baseline = population_result.samples["BGP/IP-only"][0]
        summary_rows.append((
            "Population battery", "§4/§5: daemon caches, pooled proxy "
            "connections, and path-aware transports keep tail latency "
            "bounded when a whole city browses at once",
            f"{population_result.users} users: p99 "
            f"{opportunistic.plt_p99_ms:.0f} ms opportunistic vs "
            f"{baseline.plt_p99_ms:.0f} ms BGP/IP-only; daemon hit rate "
            f"{opportunistic.daemon_cache_hit_rate:.0%}, path-server "
            f"{opportunistic.path_server_qps:.0f} qps",
            "yes" if population_holds(population_result) else "NO"))
    if overload_result is not None:
        on_samples = overload_result.samples["protections-on"]
        off_samples = overload_result.samples["protections-off"]
        on_gp = sum(s.goodput_ratio for s in on_samples) / len(on_samples)
        off_ampl = (sum(s.retry_amplification for s in off_samples)
                    / len(off_samples))
        on_shed = sum(s.shed_fraction for s in on_samples) / len(on_samples)
        summary_rows.append((
            "Overload battery", "§4.2: shared network infrastructure must "
            "degrade gracefully under a flash crowd — admission control "
            "and retry budgets prevent metastable retry storms",
            f"protections off: {off_ampl:.1f}× retry amplification, "
            f"overload outlives the spike; on: {on_shed:.0%} shed "
            f"explicitly, burst goodput {on_gp:.1f}× pre-spike, drains "
            "within the spike window",
            "yes" if overload_holds(overload_result) else "NO"))

    parts = [HEADER]
    for name, claim, measured, holds in summary_rows:
        parts.append(f"| {name} | {claim} | {measured} | {holds} |\n")
    parts.append(block("Table 1 (reconstructed; see "
                       "repro/core/properties.py)", table1.render()))
    parts.append(block("Figure 3 — local setup PLT", figure3.render()))
    parts.append(block("Figure 5 — remote pages", figure5.render()))
    parts.append(block("Figure 6 — AS-local pages", figure6.render()))
    parts.append(block("Ablation A — overhead decomposition",
                       ablation_a.render()))
    parts.append(block("Ablation B — policy quality", ablation_b.render()))
    parts.append(block("Ablation C — availability modes",
                       render_mode_sweep(ablation_c)))
    parts.append(block(
        "Ablation D — multipath bulk transfer",
        (f"4 MB, dual-homed testbed (2 x 300 Mbps disjoint paths)\n"
         f"single path : {mp_single:10.1f} ms\n"
         f"two paths   : {mp_multi:10.1f} ms\n"
         f"speedup     : {mp_single / mp_multi:10.2f}x")))
    parts.append(block("Ablation E — beacon-store diversity",
                       render_diversity(ablation_e)))
    parts.append(block("Chaos battery — PLT and recovery under faults",
                       chaos.render()))
    if resilience_result is not None:
        parts.append(block(
            "Resilience battery — self-healing paths under churn",
            resilience_result.render()))
    if population_result is not None:
        parts.append(block(
            "Population battery — a city browses",
            population_result.render()))
        parts.append(POPULATION_NOTE)
    if overload_result is not None:
        parts.append(block(
            "Overload battery — flash crowd vs. graceful degradation",
            overload_result.render()))
        parts.append(OVERLOAD_NOTE)
    if ablation_report is not None:
        parts.append(block(
            "Component ablations — leave-one-out importance",
            ablation_report.render()))
        parts.append(ABLATION_NOTE)
    parts.append(FASTPATH_NOTE)
    parts.append(f"\n_Total generation time: {time.time() - started:.1f} s "
                 f"of wall clock (simulated time is much larger)._\n")

    with open(output_path, "w") as handle:
        handle.write("".join(parts))
    print(f"wrote {output_path} in {time.time() - started:.1f}s")
    if population_result is not None:
        print(f"wrote {write_population_report(population_result)}")
    if overload_result is not None:
        print(f"wrote {write_overload_report(overload_result)}")
    if ablation_report is not None:
        print("wrote results/ablations2.json")
    if obs:
        for path in write_obs_artifacts():
            print(f"wrote {path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="regenerate EXPERIMENTS.md from the simulator")
    parser.add_argument("output_path", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("--workers", type=int, default=None,
                        help="trial-level parallelism (default: all cores, "
                             "or $REPRO_WORKERS)")
    parser.add_argument("--obs", action="store_true",
                        help="also export traced-load JSON artifacts to "
                             "results/obs/")
    parser.add_argument("--resilience", action="store_true",
                        help="also run the resilience battery "
                             "(time-to-recover under link churn, "
                             "revocation on vs off)")
    parser.add_argument("--population", action="store_true",
                        help="also run the population battery "
                             "($REPRO_POPULATION_USERS users browsing a "
                             "Zipf catalog, one trial per transport "
                             "mode; writes results/population.json)")
    parser.add_argument("--overload", action="store_true",
                        help="also run the overload battery (flash-crowd "
                             "spike with the admission-control / "
                             "retry-budget protections on vs off; writes "
                             "results/overload.json)")
    parser.add_argument("--ablate", action="store_true",
                        help="also run the component-ablation sweep "
                             "(leave-one-out importance + contract "
                             "verification; writes "
                             "results/ablations2.json)")
    cli = parser.parse_args(sys.argv[1:])
    main(cli.output_path, workers=cli.workers, obs=cli.obs,
         resilience=cli.resilience, ablate=cli.ablate,
         population=cli.population, overload=cli.overload)
