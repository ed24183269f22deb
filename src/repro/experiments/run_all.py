"""Regenerate every table and figure and write EXPERIMENTS.md.

Usage::

    python -m repro.experiments.run_all [output_path] [--workers N]
                                        [--obs] [--resilience] [--ablate]
                                        [--population] [--overload]

Runs every registered experiment (``python -m repro.experiments`` lists
them) at its declared paper-scale trial count (a few minutes) and writes
a paper-vs-measured report: one summary row and one block per entry, in
registry order. Trial batteries fan out over ``--workers`` processes
(default: all cores, or the ``REPRO_WORKERS`` env var) and all batteries
are submitted up front so they overlap in one shared pool; results are
identical to a serial run.

The opt-in entries each have a flag, derived from the registry, because
they multiply wall time: ``--resilience`` (long simulated churn
sessions), ``--population`` (a ``REPRO_POPULATION_USERS``-user city,
default 1,000, once per transport mode) and ``--overload`` (the flash
crowd, protections on vs off). Entries that declare an artifact also
write it as ``results/<name>.json`` beside the report.

``--obs`` additionally re-runs one representative traced load per
experiment setup and exports the span/metric/waterfall JSON artifacts to
``results/obs/`` beside the report (render them with ``python -m
repro.obs report``). Tracing is inert, so the artifacts describe exactly
the loads the batteries measured.

``--ablate`` additionally runs the full component-ablation sweep
(:mod:`repro.experiments.components`): baseline plus one leave-one-out
run per registered component, with exact contract verification. The
sweep always runs its batteries sequentially at ``workers=1`` and after
the pool has drained, so per-component wall-clock deltas are honest.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from collections.abc import Collection

from repro.experiments.__main__ import EXPERIMENTS, REGISTRY, verdict
from repro.experiments.harness import (resolve_workers, run, submit,
                                       traced_artifact, write_json)
from repro.obs.export import write_artifact

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

    python -m repro.experiments fastpath-ab --selftest   # CI gate
    python -m repro.experiments fastpath-ab --trials 5   # wider seeds
    python -m repro.experiments fastpath-ab --jittered   # median drift

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

    python -m repro.experiments population --selftest    # <10 s CI gate
    python -m repro.experiments.run_all --population     # this report
    python -m repro.experiments population --users 200 --json out.json

``REPRO_POPULATION_USERS`` scales the city; ``SessionConfig(locality=False)``
turns revisit locality off. The machine-readable battery lands in
``results/population.json``; the simulator's throughput on a city and
the simulated PLT tail are the benchmark's ``city`` workload
(``loads_per_s`` / ``sim_plt_ms_p95`` of ``python -m bench --workload city``).

Where the simulator's own time goes on a city (the roadmap asked
whether world build dominates — it does not). On the benchmark's
60-user ``city`` workload (``python -m bench --workload city --trace 1``)
build is about 4 % of a repetition (0.03 s of ~0.75 s) and the 254
loads cost 78 k loop events, 306 per load: 7,050 analytic transfers
carry the 332 k packets, so the router and link layers are under 4 %
of the wall clock. Before routers kept a table of verified hop fields,
about a third of it was them recomputing HMACs: 241,406
``verify_hop_mac`` calls over 173,434 packets to check 12 distinct hop
fields. Routers now verify each distinct hop field once and check only
the AS match and the expiry per packet; that took a repetition from
3.4 s to 2.3 s and the flattened link path to 2.1 s with every
simulated number unchanged, and judging contention at the transmitter
took the 527 k loop events of those days to the 78 k above.
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

    python -m repro.experiments overload --selftest      # <10 s CI gate
    python -m repro.experiments.run_all --overload       # this report
    python -m repro.experiments overload --trials 4 --json out.json

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

Every optional runtime component (fast path, revocation dissemination,
circuit breaker, tracing, admission control, retry budget) is
registered declaratively in
``repro.experiments.components`` with its toggle, its correctness
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

    python -m repro.experiments components --selftest   # <10 s CI gate
    python -m repro.experiments.run_all --ablate        # this report
    python -m repro.experiments components --json out.json

The machine-readable sweep lands in ``results/components.json``; the
CLI prints its own wall-clock (``(sweep took N s)``).
"""


def block(title: str, body: str) -> str:
    """One fenced result section."""
    return f"\n## {title}\n\n```\n{body}\n```\n"


#: The component sweep (``--ablate``), and the static postscript that
#: follows an entry's block.
SWEEP = REGISTRY["components"]
POSTSCRIPTS = {REGISTRY["population"]: POPULATION_NOTE,
               REGISTRY["overload"]: OVERLOAD_NOTE, SWEEP: ABLATION_NOTE}


def write_obs_artifacts(entries, directory: pathlib.Path) -> list[str]:
    """Export one traced representative load per entry that has one.

    Returns the written artifact paths. Seeds are the batteries' base
    seeds, so each artifact's waterfall explains the first trial of the
    corresponding cell.
    """
    written = []
    for entry in entries:
        if entry.traced is None:
            continue
        written.append(str(write_artifact(
            directory / f"{entry.name}.json", traced_artifact(entry))))
    return written


def main(output_path: str = "EXPERIMENTS.md",
         workers: int | None = None, obs: bool = False,
         ablate: bool = False, opt_in: Collection[str] = (),
         trials: int | None = None) -> None:
    """Write the report; ``opt_in`` names the opt-in entries to include
    and ``trials`` overrides every entry's paper-scale count (tests)."""
    workers = resolve_workers(workers)
    started = time.time()
    results_dir = pathlib.Path(output_path).parent / "results"
    entries = [entry for entry in EXPERIMENTS
               if not entry.opt_in or entry.name in opt_in]
    # Battery-level parallelism: every cell of every entry goes to the
    # shared pool up front, so trials from different batteries interleave
    # across workers instead of each battery draining before the next
    # starts. Collection is in registry order — the serial entries do
    # their work there, in this process, while the pool grinds — so the
    # report is byte-identical at any worker count.
    pending = [submit(entry, trials=trials, workers=workers)
               for entry in entries]
    reported = [(entry, in_flight.collect())
                for entry, in_flight in zip(entries, pending)]
    parts = [HEADER]
    for entry, result in reported:
        parts.append(f"| {entry.label} | {entry.claim} | "
                     f"{entry.measured(result)} | "
                     f"{verdict(entry, result)} |\n")
    if ablate:
        # After the pool drains: the sweep times each leave-one-out
        # battery sequentially, and honest wall-clock deltas need an
        # otherwise-idle machine.
        reported.append((SWEEP, run(SWEEP, trials=trials)))
    for entry, result in reported:
        parts.append(block(entry.title, result.render()))
        parts.append(POSTSCRIPTS.get(entry, ""))
    parts.append(FASTPATH_NOTE)
    parts.append(f"\n_Total generation time: {time.time() - started:.1f} s "
                 f"of wall clock (simulated time is much larger)._\n")

    with open(output_path, "w") as handle:
        handle.write("".join(parts))
    print(f"wrote {output_path} in {time.time() - started:.1f}s")
    for entry, result in reported:
        if entry.artifact is not None:
            print(f"wrote {write_json(results_dir / entry.artifact, result)}")
    if obs:
        for path in write_obs_artifacts(entries, results_dir / "obs"):
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
    parser.add_argument("--ablate", action="store_true",
                        help="also run the component-ablation sweep "
                             "(leave-one-out importance + contract "
                             "verification; writes "
                             "results/components.json)")
    optional = [entry for entry in EXPERIMENTS if entry.opt_in]
    for entry in optional:
        parser.add_argument(
            f"--{entry.name}", action="store_true",
            help=f"also run: {entry.title}" + (
                f" (writes results/{entry.artifact})" if entry.artifact
                else ""))
    cli = parser.parse_args(sys.argv[1:])
    main(cli.output_path, workers=cli.workers, obs=cli.obs,
         ablate=cli.ablate,
         opt_in={entry.name for entry in optional
                 if getattr(cli, entry.name)})
