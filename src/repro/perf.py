"""Performance measurement and the repo's recorded perf trajectory.

A set of fixed workloads quantifies the simulator's speed:

* **event-loop throughput** — raw scheduler events/sec (a ``call_soon``
  storm) and coroutine events/sec (a process yielding timeouts), the
  single-core hot path every simulation rides on;
* **figure-3-sized battery** — wall-clock for a four-condition page-load
  battery run serially vs. fanned out over a worker pool, which is what
  dominates ``run_all`` regeneration time;
* **snapshot cache** — per-trial latency of a remote-testbed trial with
  the control-plane snapshot cache disabled vs. primed, isolating what
  cross-trial world reuse saves (PKI + beaconing + BGP of seven ASes; a
  single-AS world has no control plane worth caching);
* **tracing overhead** — the same trial untraced vs. with the
  ``repro.obs`` tracer attached, guarding the observability subsystem's
  "inert and cheap" contract;
* **recovery latency** — the mean simulated time-to-recover of
  revocation-driven self-healing under link churn (the resilience
  battery's revocation-on cell), guarding the dissemination pipeline's
  end-to-end latency PR over PR;
* **hybrid-fidelity fast path** — packet-level oracle vs. analytic
  transfers on exact-paired jitter-free trials;
* **ablation sweep** — wall-clock of the component-ablation selftest
  (``repro.experiments.ablations2``), guarding the ``make verify``
  gate's runtime;
* **population workload** — wall-clock users/sec of one
  opportunistic-SCION population trial (``repro.workload`` session
  plans over the remote testbed) plus its simulated p99 PLT, guarding
  both the workload engine's throughput and the tail latency the
  population battery reports;
* **overload workload** — one protections-on flash-crowd trial from the
  overload battery, recording the shed fraction and the simulated
  burst-phase p99 PLT — the graceful-degradation envelope the
  trajectory guards (a PR that quietly weakens admission control or the
  retry budget moves ``overload_p99_plt_ms`` long before the selftest's
  hard thresholds trip).

Results append to ``BENCH_results.json`` at the repo root so successive
PRs accumulate a machine-readable performance trajectory (events/sec,
serial vs. parallel wall-clock, speedup) instead of anecdotes.

Usage::

    python -m repro.perf [--quick] [--workers N] [--no-write]
    python -m repro.perf --compare

``--quick`` shrinks the workloads to a <30 s smoke check suitable as a
tier-2 CI gate. ``--compare`` diffs the two most recent full runs in the
trajectory file and exits non-zero when any headline metric regressed
more than 10 % — the PR-to-PR guard for the recorded trajectory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import pathlib
import platform
import sys
import time
from typing import Any

from repro.experiments.harness import resolve_workers
from repro.simnet.events import EventLoop

#: Repo root (``src/repro/perf.py`` → two levels up from the package).
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
#: Environment variable overriding where the trajectory file lives.
BENCH_FILE_ENV = "REPRO_BENCH_FILE"
#: Current schema version of ``BENCH_results.json``.
BENCH_SCHEMA = 1


def bench_results_path() -> pathlib.Path:
    """Where the perf trajectory is recorded."""
    override = os.environ.get(BENCH_FILE_ENV)
    if override:
        return pathlib.Path(override)
    return REPO_ROOT / "BENCH_results.json"


def append_rows(rows: list[dict[str, Any]],
                path: pathlib.Path | None = None) -> pathlib.Path:
    """Append machine-readable rows to the trajectory file.

    The file holds ``{"schema": 1, "rows": [...]}``; a missing or
    unreadable file starts a fresh trajectory rather than failing the
    benchmark that produced the numbers.
    """
    path = path or bench_results_path()
    payload: dict[str, Any] = {"schema": BENCH_SCHEMA, "rows": []}
    try:
        existing = json.loads(path.read_text())
        if isinstance(existing, dict) and isinstance(existing.get("rows"),
                                                     list):
            payload = existing
    except (OSError, ValueError):
        pass
    payload["schema"] = BENCH_SCHEMA
    payload["rows"].extend(rows)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def machine_fingerprint() -> dict[str, Any]:
    """The context needed to compare rows across machines/PRs."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ---------------------------------------------------------------------------
# Workload 1 — raw event-loop throughput
# ---------------------------------------------------------------------------


def _callback_storm(n_events: int) -> float:
    """Seconds to drain ``n_events`` immediate callbacks."""
    loop = EventLoop()
    nop = _nop
    started = time.perf_counter()
    call_soon = loop.call_soon
    for _ in range(n_events):
        call_soon(nop)
    loop.run()
    return time.perf_counter() - started


def _nop() -> None:
    return None


def _coroutine_churn(n_yields: int) -> float:
    """Seconds for a process to yield ``n_yields`` timeouts.

    Exercises the full coroutine layer: Timeout construction, event
    trigger, callback dispatch, and generator resumption per iteration.
    """
    loop = EventLoop()

    def proc():
        timeout = loop.timeout
        for _ in range(n_yields):
            yield timeout(0.01)

    started = time.perf_counter()
    loop.run_process(proc())
    return time.perf_counter() - started


def measure_event_throughput(n_events: int = 300_000,
                             repeats: int = 3) -> dict[str, Any]:
    """Best-of-``repeats`` events/sec for both loop workloads."""
    storm = min(_callback_storm(n_events) for _ in range(repeats))
    # Each yield schedules a timeout callback plus a process step.
    churn = min(_coroutine_churn(n_events // 2) for _ in range(repeats))
    return {
        "workload": f"event-loop/{n_events}",
        "n_events": n_events,
        "events_per_sec": round(n_events / storm, 1),
        "coroutine_events_per_sec": round(n_events / churn, 1),
    }


# ---------------------------------------------------------------------------
# Workload 2 — figure-3-sized battery, serial vs. parallel
# ---------------------------------------------------------------------------


def measure_battery(trials: int = 12, n_resources: int = 12,
                    workers: int | None = None,
                    base_seed: int = 100) -> dict[str, Any]:
    """Wall-clock for a four-condition Figure 3 battery, serial vs.
    parallel, plus a sample-for-sample determinism check.

    The parallel pool is warmed (spawned and loaded) before timing so
    the number reflects steady-state battery throughput — one `run_all`
    makes many batteries over the same pool — while ``spawn_s`` records
    the one-time startup cost separately.
    """
    from repro.experiments.local_setup import run_figure3

    workers = resolve_workers(workers)
    run = functools.partial(run_figure3, trials=trials,
                            n_resources=n_resources, base_seed=base_seed)

    started = time.perf_counter()
    serial = run(workers=1)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    run(workers=workers)  # warm-up: spawns + first battery
    spawn_s = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run(workers=workers)
    parallel_s = time.perf_counter() - started

    identical = all(serial.conditions[c] == parallel.conditions[c]
                    for c in serial.conditions)
    return {
        "workload": f"figure3-battery/{trials}x{n_resources}",
        "trials": trials,
        "n_resources": n_resources,
        "workers": workers,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "spawn_s": round(spawn_s, 3),
        "speedup": round(serial_s / parallel_s, 2) if parallel_s else 0.0,
        "identical": identical,
    }


# ---------------------------------------------------------------------------
# Workload 3 — control-plane snapshot cache
# ---------------------------------------------------------------------------


def measure_snapshot_cache(trials: int = 8, n_resources: int = 9,
                           base_seed: int = 100,
                           repeats: int = 3) -> dict[str, Any]:
    """Per-trial latency of a remote-testbed trial, uncached vs. cached.

    The world is the seven-AS testbed because that is where the cache
    has something to save: its control plane generates keys, signs and
    verifies beacons and converges BGP, while a single-AS world builds
    nothing but forwarding keys. The uncached pass disables the snapshot
    cache entirely (every world rebuilds PKI + beaconing + BGP from
    scratch); the cached pass runs the same seeds with their snapshots
    already interned — the steady state inside ``run_all``, where each
    seed's control plane is shared across a figure's conditions.
    Samples must be bit-identical either way. The cached arm (the one
    ``--compare`` gates) takes the best of ``repeats`` passes — a single
    pass of a few ms/trial is scheduler noise on small containers.
    """
    from repro.experiments.remote_setup import FAR_ORIGIN, remote_trial
    from repro.internet import snapshot
    from repro.internet.knobs import forced

    seeds = range(base_seed, base_seed + trials)

    def pass_over_seeds() -> tuple[list[float], float]:
        started = time.perf_counter()
        samples = [remote_trial(FAR_ORIGIN, "single origin / SCION", seed,
                                n_resources=n_resources) for seed in seeds]
        return samples, time.perf_counter() - started

    with forced(snapshot.SNAPSHOT_CACHE_ENV, False):
        uncached_samples, uncached_s = pass_over_seeds()

    snapshot.clear_cache()
    pass_over_seeds()  # prime: one miss per seed
    cached_samples, cached_s = pass_over_seeds()
    for _ in range(max(1, repeats) - 1):
        _, elapsed = pass_over_seeds()
        cached_s = min(cached_s, elapsed)
    return {
        "workload": f"snapshot-cache-remote/{trials}x{n_resources}",
        "trials": trials,
        "n_resources": n_resources,
        "uncached_trial_ms": round(uncached_s / trials * 1000.0, 2),
        "cached_trial_ms": round(cached_s / trials * 1000.0, 2),
        "snapshot_speedup": round(uncached_s / cached_s, 2) if cached_s
        else 0.0,
        "identical": uncached_samples == cached_samples,
    }


# ---------------------------------------------------------------------------
# Workload 4 — observability overhead
# ---------------------------------------------------------------------------


def measure_tracing(trials: int = 8, n_resources: int = 12,
                    base_seed: int = 100, repeats: int = 5) -> dict[str, Any]:
    """Per-trial latency of a local-testbed trial, untraced vs. traced.

    The traced pass attaches a full :class:`~repro.obs.spans.Tracer`
    (spans + metrics at every layer); the untraced pass is the default
    ``NULL_TRACER`` path. Tracing is inert by design, so the PLT samples
    must be bit-identical — only the wall-clock may differ, and the
    overhead of span bookkeeping should stay in the low single digits.
    Each arm takes the best of ``repeats`` interleaved passes: a single
    pass pair is dominated by scheduler noise on small containers.
    """
    from repro.experiments.local_setup import figure3_trial
    from repro.internet import snapshot

    seeds = range(base_seed, base_seed + trials)

    def pass_over_seeds(obs: bool) -> tuple[list[float], float]:
        started = time.perf_counter()
        samples = [figure3_trial("mixed SCION-IP", seed,
                                 n_resources=n_resources, obs=obs)
                   for seed in seeds]
        return samples, time.perf_counter() - started

    snapshot.clear_cache()
    pass_over_seeds(obs=False)  # prime the snapshot cache for both passes
    untraced_s = math.inf
    traced_s = math.inf
    for _ in range(max(1, repeats)):
        untraced_samples, elapsed = pass_over_seeds(obs=False)
        untraced_s = min(untraced_s, elapsed)
        traced_samples, elapsed = pass_over_seeds(obs=True)
        traced_s = min(traced_s, elapsed)
    overhead = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
    return {
        "workload": f"tracing/{trials}x{n_resources}",
        "trials": trials,
        "n_resources": n_resources,
        "trial_ms": round(untraced_s / trials * 1000.0, 2),
        "traced_trial_ms": round(traced_s / trials * 1000.0, 2),
        "tracing_overhead_pct": round(overhead * 100.0, 1),
        "identical": untraced_samples == traced_samples,
    }


# ---------------------------------------------------------------------------
# Workload 5 — self-healing recovery latency
# ---------------------------------------------------------------------------


def measure_resilience(trials: int = 4,
                       base_seed: int = 4200) -> dict[str, Any]:
    """Recovery latency of revocation-driven self-healing under churn.

    Runs revocation-on opportunistic churn sessions from the resilience
    battery and records the mean *simulated* time-to-recover as
    ``recovery_ms`` — the headline the trajectory guards: if a PR makes
    self-healing slower (revocations propagating later, the daemon
    filtering less eagerly), ``--compare`` flags the regression even
    though every test still passes. A second pass over the same seeds
    must be bit-identical (the battery's determinism contract).
    """
    from repro.experiments.resilience_battery import resilience_trial

    seeds = range(base_seed, base_seed + trials)

    def pass_over_seeds() -> tuple[list[tuple[float, ...]], float]:
        started = time.perf_counter()
        samples = [resilience_trial(True, "opportunistic", seed)
                   for seed in seeds]
        return samples, time.perf_counter() - started

    first_samples, first_s = pass_over_seeds()
    second_samples, second_s = pass_over_seeds()
    wall_s = min(first_s, second_s)
    recovery = sum(sample[0] for sample in first_samples) / trials
    return {
        "workload": f"resilience/{trials}",
        "trials": trials,
        "recovery_ms": round(recovery, 2),
        "resilience_trial_ms": round(wall_s / trials * 1000.0, 2),
        "identical": first_samples == second_samples,
    }


# ---------------------------------------------------------------------------
# Workload 6 — hybrid-fidelity fast path
# ---------------------------------------------------------------------------


def measure_fastpath(trials: int = 8, n_resources: int = 12,
                     base_seed: int = 100,
                     repeats: int = 3) -> dict[str, Any]:
    """Per-trial latency of a fault-free figure-3 trial, packet-level
    oracle vs. hybrid-fidelity fast path.

    Both arms run the same seeds with host jitter zeroed, so the PLT
    samples are exact-paired and the row records the worst relative
    error next to the wall-clock and loop-event savings —
    ``fastpath_trial_ms`` and ``fastpath_events_per_sec`` are the
    headline metrics the trajectory guards (a PR that silently demotes
    everything back to packet level shows up as ``fastpath_trial_ms``
    regressing toward ``oracle_trial_ms``). The fast arm takes the best
    of ``repeats`` passes — at ~2 ms/trial a single pass is scheduler
    noise on small containers.
    """
    import dataclasses as _dataclasses

    from repro.experiments import local_setup
    from repro.simnet.fastpath import FASTPATH_ENV, PLT_ERROR_BOUND

    calibration = _dataclasses.replace(local_setup.DEFAULT_CALIBRATION,
                                       host_jitter_ms=0.0)
    seeds = range(base_seed, base_seed + trials)

    def pass_over_seeds(enabled: bool) -> tuple[list[float], float, int]:
        previous = os.environ.get(FASTPATH_ENV)
        os.environ[FASTPATH_ENV] = "1" if enabled else "0"
        try:
            samples: list[float] = []
            events = 0
            started = time.perf_counter()
            for seed in seeds:
                page = local_setup.make_page("SCION-only", n_resources, seed)
                world = local_setup.build_local_world(
                    page, seed, calibration=calibration)
                samples.append(local_setup.load_once(world))
                events += world.internet.loop.events_processed
            return samples, time.perf_counter() - started, events
        finally:
            if previous is None:
                del os.environ[FASTPATH_ENV]
            else:
                os.environ[FASTPATH_ENV] = previous

    pass_over_seeds(True)  # prime the snapshot cache for both arms
    oracle_samples, oracle_s, oracle_events = pass_over_seeds(False)
    fast_samples, fast_s, fast_events = pass_over_seeds(True)
    for _ in range(max(1, repeats) - 1):
        _, elapsed, _ = pass_over_seeds(True)
        fast_s = min(fast_s, elapsed)
    max_err = max(abs(f - o) / o
                  for o, f in zip(oracle_samples, fast_samples))
    return {
        "workload": f"fastpath/{trials}x{n_resources}",
        "trials": trials,
        "n_resources": n_resources,
        "oracle_trial_ms": round(oracle_s / trials * 1000.0, 2),
        "fastpath_trial_ms": round(fast_s / trials * 1000.0, 2),
        "fastpath_speedup": round(oracle_s / fast_s, 2) if fast_s else 0.0,
        "oracle_events": oracle_events,
        "fastpath_events": fast_events,
        "fastpath_events_per_sec": round(fast_events / fast_s, 1)
        if fast_s else 0.0,
        "fastpath_max_rel_err_pct": round(max_err * 100.0, 4),
        "within_bound": max_err <= PLT_ERROR_BOUND,
    }


# ---------------------------------------------------------------------------
# Workload 7 — component ablation harness
# ---------------------------------------------------------------------------


def measure_ablation() -> dict[str, Any]:
    """Wall-clock of the ablation harness's CI selftest sweep.

    Runs :func:`repro.experiments.ablations2.run_ablations` at its
    ``--selftest`` size and records the elapsed wall-clock as
    ``ablate_selftest_ms`` — the trajectory guard that keeps the
    ``make verify`` gate fast (a PR that balloons the sweep shows up in
    ``--compare`` before it slows CI). ``identical`` records whether
    every registered contract held and no component run errored.
    """
    from repro.experiments.ablations2 import run_ablations, selftest_config

    started = time.perf_counter()
    report = run_ablations(selftest_config())
    elapsed = time.perf_counter() - started
    top = report.ranked[0].component.name if report.ranked else None
    return {
        "workload": "ablations2/selftest",
        "ablate_selftest_ms": round(elapsed * 1000.0, 1),
        "ablate_components": len(report.results),
        "ablate_top_component": top,
        "identical": report.all_ok,
    }


# ---------------------------------------------------------------------------
# Workload 8 — population-scale traffic generation
# ---------------------------------------------------------------------------


def measure_population(users: int = 60, sites: int = 20,
                       seed: int = 920) -> dict[str, Any]:
    """Users/sec of one population trial, plus its simulated p99 PLT.

    Runs the opportunistic-SCION arm of the population battery twice
    over the same seed: ``population_users_per_sec`` (wall-clock, best
    of the two passes) guards the workload engine's throughput, and
    ``population_p99_plt_ms`` (simulated, so machine-independent)
    guards the tail the battery reports — a PR that quietly makes the
    simulated city slower shows up in ``--compare`` even though every
    test still passes. The two passes must be bit-identical (the
    workload engine's determinism contract).
    """
    from repro.experiments.population import population_trial
    from repro.workload import ArrivalCurve

    arrival = ArrivalCurve(window_ms=3_000.0)

    def one_pass():
        started = time.perf_counter()
        sample = population_trial("opportunistic-SCION", seed, users=users,
                                  sites=sites, arrival=arrival)
        return sample, time.perf_counter() - started

    first, first_s = one_pass()
    second, second_s = one_pass()
    wall_s = min(first_s, second_s)
    return {
        "workload": f"population/{users}x{sites}",
        "population_users": users,
        "population_sites": sites,
        "population_loads": first.loads,
        "population_users_per_sec": round(users / wall_s, 1) if wall_s
        else 0.0,
        "population_p99_plt_ms": round(first.plt_p99_ms, 2),
        "identical": first == second,
    }


# ---------------------------------------------------------------------------
# Workload 9 — overload / graceful degradation
# ---------------------------------------------------------------------------


def measure_overload(seed: int = 1200) -> dict[str, Any]:
    """Shed fraction and burst-phase p99 PLT of one protections-on
    flash-crowd trial.

    Both headline numbers are *simulated* (machine-independent):
    ``overload_shed_fraction`` records how much of the spike admission
    control turned away, and ``overload_p99_plt_ms`` the tail latency
    the survivors saw — together the graceful-degradation envelope. The
    trial runs twice over the same seed; the passes must be
    bit-identical, and the best wall-clock becomes
    ``overload_trial_ms``.
    """
    from repro.experiments.overload import overload_trial

    def one_pass():
        started = time.perf_counter()
        sample = overload_trial("protections-on", seed)
        return sample, time.perf_counter() - started

    first, first_s = one_pass()
    second, second_s = one_pass()
    return {
        "workload": f"overload/{first.users}",
        "overload_users": first.users,
        "overload_trial_ms": round(min(first_s, second_s) * 1000.0, 1),
        "overload_shed_fraction": round(first.shed_fraction, 4),
        "overload_p99_plt_ms": round(first.plt_p99_burst_ms, 2),
        "overload_goodput_ratio": round(first.goodput_ratio, 3),
        "identical": first == second,
    }


# ---------------------------------------------------------------------------
# Trajectory comparison (--compare)
# ---------------------------------------------------------------------------

#: Relative change beyond which --compare calls a metric regressed.
REGRESSION_THRESHOLD = 0.10

#: How many full runs before the current one form the --compare
#: baseline. Each metric is compared against its *median* over this
#: window, so one outlier run (a CPU-steal burst, an unusually lucky
#: pass) cannot wedge the gate.
BASELINE_WINDOW = 3


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0

#: The headline metrics --compare watches: (row key, higher-is-better).
COMPARE_METRICS = (
    ("events_per_sec", True),
    ("coroutine_events_per_sec", True),
    ("serial_s", False),
    ("parallel_s", False),
    # Absent in pre-snapshot-cache rows; compare skips missing metrics.
    # Local-testbed trials before the ``snapshot-cache-remote`` rows.
    ("cached_trial_ms", False),
    # Absent in pre-observability rows.
    ("traced_trial_ms", False),
    # Absent in pre-revocation rows: mean simulated time-to-recover of
    # the self-healing path machinery (resilience workload).
    ("recovery_ms", False),
    # Absent in pre-fast-path rows (hybrid-fidelity workload).
    ("fastpath_trial_ms", False),
    ("fastpath_events_per_sec", True),
    # Absent in pre-ablation-harness rows: wall-clock of the ablation
    # selftest sweep (the make-verify CI gate).
    ("ablate_selftest_ms", False),
    # Absent in pre-population rows: the workload engine's throughput
    # and the simulated tail it reports.
    ("population_users_per_sec", True),
    ("population_p99_plt_ms", False),
    # Absent in pre-overload rows: the graceful-degradation tail under
    # a protections-on flash crowd (simulated, machine-independent).
    ("overload_p99_plt_ms", False),
)


#: Row fields that say what a metric's number measured. A baseline row
#: counts only when it agrees with the current row on all of them: the
#: ablation sweep's wall-clock grows with every registered component,
#: and a workload renamed because its world changed starts a new
#: trajectory instead of being judged against the old one.
WORKLOAD_FIELDS = ("workload", "ablate_components")


def _runs_by_ts(rows: list[dict[str, Any]],
                label: str) -> list[list[dict[str, Any]]]:
    """Trajectory rows grouped into one list per run.

    A run is every row sharing a timestamp (``run_suite`` stamps all of
    its rows with the same fingerprint). Rows are appended
    chronologically, so insertion order is run order.
    """
    runs: dict[str, list[dict[str, Any]]] = {}
    for row in rows:
        if row.get("label") != label:
            continue
        runs.setdefault(str(row.get("ts")), []).append(row)
    return list(runs.values())


def _row_with(run: list[dict[str, Any]],
              metric: str) -> dict[str, Any] | None:
    """The row of ``run`` that recorded ``metric``."""
    return next((row for row in run if metric in row), None)


def compare_runs(rows: list[dict[str, Any]], label: str = "full",
                 threshold: float = REGRESSION_THRESHOLD,
                 window: int = BASELINE_WINDOW
                 ) -> dict[str, Any] | None:
    """Diff the most recent run against a median-of-recent baseline.

    Returns ``None`` when fewer than two runs with the given label
    exist. Otherwise each metric of the newest run is compared against
    its *median* over the up-to-``window`` runs preceding it, and the
    report lists the metric names that regressed beyond ``threshold``
    (throughput dropping or wall-clock growing by more than that
    fraction). The median baseline is what keeps the gate honest on
    small noisy containers: a pairwise diff against exactly the
    previous run flags every return-to-normal after one unusually fast
    run, while a single outlier among three is simply voted out.

    Runs from different PRs legitimately carry different workloads and
    metrics: a metric absent from every baseline run — or recorded
    there only for a different workload (:data:`WORKLOAD_FIELDS`) — is
    reported as ``"new"`` and one absent only from the current run as
    ``"gone"`` — neither is a regression, so a PR that adds, resizes or
    retires a workload does not wedge the gate. A metric that is
    *present* but not comparable — non-numeric or zero in every baseline
    run, or non-numeric in the current one — is reported as an
    ``"error"`` row instead of being silently dropped: a workload that
    started writing garbage must show up in the report, not vanish from
    it.
    """
    runs = _runs_by_ts(rows, label)
    if len(runs) < 2:
        return None
    current = runs[-1]
    baseline_runs = runs[max(0, len(runs) - 1 - window):-1]
    metrics: list[dict[str, Any]] = []
    for name, higher_is_better in COMPARE_METRICS:
        new_row = _row_with(current, name)
        history = []
        for run in baseline_runs:
            row = _row_with(run, name)
            if row is not None and (new_row is None or all(
                    row.get(f) == new_row.get(f) for f in WORKLOAD_FIELDS)):
                history.append(row[name])
        numeric = [v for v in history
                   if isinstance(v, (int, float)) and v]
        new_present = new_row is not None
        new = new_row[name] if new_present else None
        old_present = bool(history)
        if not old_present and not new_present:
            continue
        new_ok = isinstance(new, (int, float))
        if (old_present and not numeric) or (new_present and not new_ok):
            metrics.append({
                "metric": name,
                "baseline": history[-1] if old_present else None,
                "current": new if new_present else None,
                "status": "error", "higher_is_better": higher_is_better,
                "regression": False,
            })
            continue
        if not old_present:
            metrics.append({
                "metric": name, "baseline": None, "current": new,
                "status": "new", "higher_is_better": higher_is_better,
                "regression": False,
            })
            continue
        old = _median(numeric)
        if not new_present:
            metrics.append({
                "metric": name, "baseline": old, "current": None,
                "status": "gone", "higher_is_better": higher_is_better,
                "regression": False,
            })
            continue
        change = (new - old) / old
        regressed = (change < -threshold if higher_is_better
                     else change > threshold)
        metrics.append({
            "metric": name,
            "baseline": old,
            "current": new,
            "status": "ok",
            "change_pct": round(change * 100.0, 1),
            "higher_is_better": higher_is_better,
            "regression": regressed,
        })
    return {
        "baseline_ts": baseline_runs[-1][0].get("ts"),
        "baseline_runs": len(baseline_runs),
        "current_ts": current[0].get("ts"),
        "metrics": metrics,
        "regressions": [m["metric"] for m in metrics if m["regression"]],
    }


def render_comparison(report: dict[str, Any]) -> str:
    """Human-readable --compare report."""
    n_runs = report.get("baseline_runs", 1)
    baseline_label = (f"median of {n_runs} runs through" if n_runs > 1
                      else "run")
    lines = [
        "== repro.perf --compare ==",
        f"baseline {baseline_label} {report['baseline_ts']}  ->  "
        f"current {report['current_ts']}",
    ]
    for metric in report["metrics"]:
        direction = "higher=better" if metric["higher_is_better"] \
            else "lower=better"
        status = metric.get("status", "ok")
        if status == "new":
            lines.append(f"{metric['metric']:<26} {'(absent)':>14} -> "
                         f"{metric['current']:>14,.1f}  (new metric)")
            continue
        if status == "gone":
            lines.append(f"{metric['metric']:<26} "
                         f"{metric['baseline']:>14,.1f} -> "
                         f"{'(absent)':>14}  (gone)")
            continue
        if status == "error":
            lines.append(f"{metric['metric']:<26} "
                         f"{str(metric['baseline']):>14} -> "
                         f"{str(metric['current']):>14}  "
                         f"(ERROR: not comparable)")
            continue
        flag = "  << REGRESSION" if metric["regression"] else ""
        lines.append(
            f"{metric['metric']:<26} {metric['baseline']:>14,.1f} -> "
            f"{metric['current']:>14,.1f}  ({metric['change_pct']:+.1f}%, "
            f"{direction}){flag}")
    if report["regressions"]:
        lines.append(f"REGRESSED: {', '.join(report['regressions'])} "
                     f"(>{REGRESSION_THRESHOLD:.0%} worse)")
    else:
        lines.append("no regressions beyond "
                     f"{REGRESSION_THRESHOLD:.0%}")
    return "\n".join(lines)


def load_rows(path: pathlib.Path | None = None) -> list[dict[str, Any]]:
    """The trajectory file's rows ([] when missing or malformed)."""
    path = path or bench_results_path()
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    if isinstance(payload, dict) and isinstance(payload.get("rows"), list):
        return payload["rows"]
    return []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def render(rows: list[dict[str, Any]]) -> str:
    """Human-readable summary of a perf run."""
    lines = ["== repro.perf =="]
    for row in rows:
        parts = [f"{row['workload']:<28}"]
        if "events_per_sec" in row:
            parts.append(f"raw {row['events_per_sec']:>12,.0f} ev/s")
            parts.append(
                f"coroutine {row['coroutine_events_per_sec']:>12,.0f} ev/s")
        if "serial_s" in row:
            parts.append(f"serial {row['serial_s']:.2f}s")
            parts.append(f"parallel({row['workers']}) "
                         f"{row['parallel_s']:.2f}s")
            parts.append(f"speedup {row['speedup']:.2f}x")
            parts.append("deterministic" if row["identical"]
                         else "NON-DETERMINISTIC")
        if "uncached_trial_ms" in row:
            parts.append(f"uncached {row['uncached_trial_ms']:.1f} ms/trial")
            parts.append(f"cached {row['cached_trial_ms']:.1f} ms/trial")
            parts.append(f"speedup {row['snapshot_speedup']:.2f}x")
            parts.append("deterministic" if row["identical"]
                         else "NON-DETERMINISTIC")
        if "traced_trial_ms" in row:
            parts.append(f"untraced {row['trial_ms']:.1f} ms/trial")
            parts.append(f"traced {row['traced_trial_ms']:.1f} ms/trial")
            parts.append(f"overhead {row['tracing_overhead_pct']:+.1f}%")
            parts.append("deterministic" if row["identical"]
                         else "NON-DETERMINISTIC")
        if "recovery_ms" in row:
            parts.append(f"recovery {row['recovery_ms']:,.0f} simulated ms")
            parts.append(f"wall {row['resilience_trial_ms']:.1f} ms/trial")
            parts.append("deterministic" if row["identical"]
                         else "NON-DETERMINISTIC")
        if "fastpath_trial_ms" in row:
            parts.append(f"oracle {row['oracle_trial_ms']:.1f} ms/trial")
            parts.append(f"fastpath {row['fastpath_trial_ms']:.1f} ms/trial")
            parts.append(f"speedup {row['fastpath_speedup']:.2f}x")
            parts.append(
                f"{row['fastpath_events_per_sec']:,.0f} ev/s")
            parts.append(f"max_err {row['fastpath_max_rel_err_pct']:.4f}%"
                         + ("" if row["within_bound"]
                            else " EXCEEDS BOUND"))
        if "population_users_per_sec" in row:
            parts.append(f"{row['population_users_per_sec']:,.1f} users/s")
            parts.append(f"p99 {row['population_p99_plt_ms']:,.1f} "
                         f"simulated ms")
            parts.append(f"{row['population_loads']} loads")
            parts.append("deterministic" if row["identical"]
                         else "NON-DETERMINISTIC")
        if "overload_shed_fraction" in row:
            parts.append(f"shed {row['overload_shed_fraction']:.1%}")
            parts.append(f"p99 burst {row['overload_p99_plt_ms']:,.0f} "
                         f"simulated ms")
            parts.append(f"goodput {row['overload_goodput_ratio']:.2f}x")
            parts.append(f"wall {row['overload_trial_ms']:,.0f} ms/trial")
            parts.append("deterministic" if row["identical"]
                         else "NON-DETERMINISTIC")
        if "ablate_selftest_ms" in row:
            parts.append(f"sweep {row['ablate_selftest_ms']:,.0f} ms")
            parts.append(f"{row['ablate_components']} components")
            parts.append(f"top={row['ablate_top_component']}")
            parts.append("contracts OK" if row["identical"]
                         else "CONTRACTS FAILED")
        lines.append("  ".join(parts))
    return "\n".join(lines)


def run_suite(quick: bool = False,
              workers: int | None = None) -> list[dict[str, Any]]:
    """Every workload at full or ``--quick`` size, as trajectory rows."""
    if quick:
        throughput = measure_event_throughput(n_events=100_000, repeats=1)
        battery = measure_battery(trials=6, n_resources=6, workers=workers)
        cache = measure_snapshot_cache(trials=4, n_resources=6)
        tracing = measure_tracing(trials=4, n_resources=6)
        resilience = measure_resilience(trials=2)
        fastpath = measure_fastpath(trials=4, n_resources=6)
        population = measure_population(users=16, sites=10)
    else:
        throughput = measure_event_throughput()
        battery = measure_battery(workers=workers)
        cache = measure_snapshot_cache()
        tracing = measure_tracing()
        resilience = measure_resilience()
        fastpath = measure_fastpath()
        population = measure_population()
    # The ablation sweep and the overload trial are CI-gate-sized
    # workloads either way.
    ablation = measure_ablation()
    overload = measure_overload()
    context = machine_fingerprint()
    context["source"] = "repro.perf"
    context["label"] = "quick" if quick else "full"
    rows = [{**context, **throughput}, {**context, **battery},
            {**context, **cache}, {**context, **tracing},
            {**context, **resilience}, {**context, **fastpath},
            {**context, **population}, {**context, **overload},
            {**context, **ablation}]
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="time the simulator's fixed workloads and record the "
                    "results in BENCH_results.json")
    parser.add_argument("--quick", action="store_true",
                        help="small workloads (<30 s), for CI smoke checks")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel battery width (default: all cores, "
                             "or $REPRO_WORKERS)")
    parser.add_argument("--no-write", action="store_true",
                        help="print results without touching "
                             "BENCH_results.json")
    parser.add_argument("--compare", action="store_true",
                        help="diff the two latest full runs in the "
                             "trajectory file instead of benchmarking; "
                             "exit 1 on a >10%% regression")
    args = parser.parse_args(argv)

    if args.compare:
        report = compare_runs(load_rows())
        if report is None:
            print("need at least two recorded full runs in "
                  f"{bench_results_path()} to compare; nothing to do")
            return 0
        print(render_comparison(report))
        return 1 if report["regressions"] else 0

    rows = run_suite(quick=args.quick, workers=args.workers)
    print(render(rows))
    if not args.no_write:
        path = append_rows(rows)
        print(f"recorded {len(rows)} rows in {path}")
    if not all(row.get("identical", True) for row in rows):
        print("ERROR: a workload diverged from its serial/uncached run",
              file=sys.stderr)
        return 1
    if not all(row.get("within_bound", True) for row in rows):
        print("ERROR: the fast path exceeded its documented PLT bound",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
