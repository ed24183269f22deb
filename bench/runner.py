"""One run of one workload: the timed region, or the traced one.

``run_end_to_end`` and ``run_traced`` return the contract's result object —
``{"correct", "attempted", "failed", "metrics"}`` — with every
end-to-end metric (``trace=0``) or every per-layer metric (``trace=1``)
that ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

from bench import ROOT, load_spec
from bench.harness import (LAYERS, PHASES, Spans, digest, peak_rss_mb,
                           percentile, profile_buckets)
from bench.workloads import WORKLOADS, Rep, fastpath_error_pct

#: Fewest repetitions a timed region may hold, whatever ``--seconds``.
MIN_REPS = 5
#: Fresh processes that each time import + cold build + warm-up.
SETUP_RUNS = 3


def setup_seconds(name: str, seed: int, scale: float,
                  runs: int = SETUP_RUNS) -> float:
    """Median wall of ``runs`` fresh interpreters doing the workload's
    set-up: start, import ``repro``, first cold build, warm-up loads."""
    command = [sys.executable, "-m", "bench", "--workload", name,
               "--seed", str(seed), "--scale", repr(scale), "--setup-only"]
    walls = []
    for _ in range(runs):
        started = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def quiet_quartile(per_rep: list[float], better: str) -> float:
    """The better-side quartile of a wall-clock statistic taken once per
    repetition. A neighbour on this shared box slows 10–30 % of
    repetitions by 10–35 % for 10–60 s at a stretch (memory-bound: a
    spin loop run alongside does not see it), which moves a median of
    6–8 repetitions by ±5 % from run to run and this quartile by ±2–3 %.
    """
    quartiles = statistics.quantiles(per_rep, n=4)
    return quartiles[0] if better == "lower" else quartiles[2]


def counter_metrics(rep: Rep) -> dict[str, float]:
    """The exact per-repetition counters, by their metric names."""
    c = rep.counters
    loads = max(1, len(rep.loads))
    # Every send either commits analytically or falls back; a demotion
    # is a committed transfer that later fell back (counted in both).
    sends = c["fp_transfers"] + c["fp_fallbacks"] - c["fp_demotions"]
    lookups = c["shed"] + c["admitted"]
    served = c["scion_requests"] + c["ip_requests"]
    arm = {name: sample.retry_amplification
           for name, sample in rep.arms.items()}
    ok = rep.ok_plts()
    return {
        "sim.plt_ms_mean": statistics.fmean(ok) if ok else 0.0,
        "sim.plt_ms_p50": percentile(ok, 0.50) if ok else 0.0,
        "sim.plt_ms_p95": percentile(ok, 0.95) if ok else 0.0,
        "sim.ok_load_share": len(ok) / loads,
        "simnet.events.per_load": c["events"] / loads,
        "simnet.link.packets_sent": c["packets_sent"],
        "simnet.link.packets_dropped": c["packets_dropped"],
        "simnet.link.bytes_sent": c["bytes_sent"],
        "simnet.fastpath.transfers": c["fp_transfers"],
        "simnet.fastpath.fallbacks": c["fp_fallbacks"],
        "simnet.fastpath.demotions": c["fp_demotions"],
        "simnet.fastpath.commit_share":
            (c["fp_transfers"] - c["fp_demotions"]) / sends if sends else 0.0,
        "internet.snapshot.hits": c["snapshot_hits"],
        "internet.snapshot.misses": c["snapshot_misses"],
        "scion.daemon.queries": c["daemon_queries"],
        "scion.daemon.cache_hit_share":
            c["daemon_hits"] / c["daemon_queries"]
            if c["daemon_queries"] else 0.0,
        "scion.path_server.lookups": c["ps_lookups"],
        "scion.admission.shed_share": c["shed"] / lookups if lookups else 0.0,
        "scion.admission.peak_backlog": c["peak_backlog"],
        "http.connections_opened": c["connections_opened"],
        "http.pool_waits": c["pool_waits"],
        "http.timeouts": c["http_timeouts"],
        "core.skip.scion_fetch_share":
            c["scion_requests"] / served if served else 0.0,
        "core.skip.retry_amplification_on": arm.get("protections-on", 0.0),
        "core.skip.retry_amplification_off": arm.get("protections-off", 0.0),
    }


def _same_outputs(reps: list[Rep]) -> list[str]:
    """Determinism check: every repetition ran the same input, so
    simulated results and counters must be bit-identical."""
    first_digest, first_counters = digest(reps[0].loads), reps[0].counters
    errors = []
    for index, rep in enumerate(reps[1:], start=1):
        if digest(rep.loads) != first_digest:
            errors.append(f"repetition {index}: simulated PLTs differ "
                          "from repetition 0")
        if rep.counters != first_counters:
            errors.append(f"repetition {index}: counters differ from "
                          "repetition 0")
    return errors


def _result(name: str, reps: list[Rep], errors: list[str],
            metrics: dict[str, float], kind: str) -> dict:
    units = {metric["name"]: metric["unit"] for metric in load_spec()[kind]}
    if set(units) != set(metrics):
        raise SystemExit(
            f"bench: {kind} metrics out of step with BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}")
    for error in errors:
        print(f"bench: {name}: CHECK FAILED: {error}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(len(rep.loads) for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
        # Not part of the contract line; the tests and --agree read it.
        "digest": digest(reps[0].loads),
    }


def _checks(workload, seed: int, reps: list[Rep]) -> tuple[list[str], float]:
    errors = _same_outputs(reps) + workload.shape_errors(reps[0])
    fastpath_error = 0.0
    if workload.name == "fig3_oracle":
        fastpath_error = fastpath_error_pct(seed)
        if fastpath_error > 1.0:
            errors.append(f"fast-path PLT error {fastpath_error:.3f} % > 1 %")
    return errors, fastpath_error


def run_end_to_end(name: str, seed: int, seconds: float, scale: float = 1.0,
                   setup_runs: int = SETUP_RUNS) -> dict:
    """The timed region, tracing off: at least ``MIN_REPS`` repetitions
    and at least ``seconds`` of them, GC left on inside a repetition
    and a full collection between two."""
    workload = WORKLOADS[name]
    setup_s = setup_seconds(name, seed, scale, setup_runs)
    inputs = workload.plan(seed, scale)
    workload.warmup(inputs)
    spans = Spans(False)
    reps: list[Rep] = []
    started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        gc.collect()
        reps.append(workload.repetition(inputs, spans))
    if workload.loop == "closed":
        p95_ms = [percentile(rep.load_wall_s, 0.95) * 1000.0 for rep in reps]
    else:
        # One interleaved event loop serves all users, so a single load
        # has no wall time of its own, and one sample per repetition
        # supports no tail: the world's wall time amortised per load.
        p95_ms = [rep.wall_s * 1000.0 / len(rep.loads) for rep in reps]
    ok = reps[0].ok_plts()
    errors, _fastpath_error = _checks(workload, seed, reps)
    metrics = {
        "setup_s": setup_s,
        "loads_per_s": quiet_quartile(
            [len(rep.loads) / rep.wall_s for rep in reps], "higher"),
        "load_wall_ms_p95": quiet_quartile(p95_ms, "lower"),
        "peak_rss_mb": peak_rss_mb(),
        "sim_plt_ms_mean": statistics.fmean(ok),
        "sim_plt_ms_p95": percentile(ok, 0.95),
    }
    return _result(name, reps, errors, metrics, "end_to_end")


def run_traced(name: str, seed: int, scale: float = 1.0) -> dict:
    """The traced run: one plain repetition, one with phase spans, one
    under cProfile (same input, so the three must agree bit for bit),
    then the isolated probes."""
    from bench.probes import run_probes

    workload = WORKLOADS[name]
    inputs = workload.plan(seed, scale)
    workload.warmup(inputs)
    gc.collect()
    plain = workload.repetition(inputs, Spans(False))
    gc.collect()
    spans = Spans(True)
    with spans.span("repetition"):
        spanned = workload.repetition(inputs, spans)
    gc.collect()
    profiled, shares, calls = profile_buckets(
        lambda: workload.repetition(inputs, Spans(False)))
    reps = [plain, spanned, profiled]
    errors, fastpath_error = _checks(workload, seed, reps)
    self_seconds = spans.self_seconds()
    metrics = counter_metrics(plain)
    metrics["simnet.fastpath.plt_err_pct"] = fastpath_error
    for phase in PHASES:
        metrics[f"phase.{phase}_s"] = self_seconds.get(phase, 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = shares[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    metrics["harness.trace_overhead_ratio"] = profiled.wall_s / plain.wall_s
    metrics.update(run_probes())
    spans.write(f"{name}-{seed}")
    return _result(name, reps, errors, metrics, "per_layer")
