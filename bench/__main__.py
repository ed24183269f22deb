"""Command line of the benchmark.

``python -m bench --seed S``
    every workload, each in a fresh child process, one at a time; every
    metric printed by name with its unit; non-zero exit on a failed
    check. Add ``--trace`` for the separate traced run.
``python -m bench --workload W --seed S --seconds N --trace 0|1``
    one run; the last line of standard output is the result object.
``python -m bench --agree``
    two interleaved sets of runs of the same code, differences beside
    bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from bench import ROOT, load_spec, require_repro

CONTRACT_KEYS = ("correct", "attempted", "failed", "metrics")
#: Per-layer metrics in these units are host measurements; every other
#: one (counts, bytes, shares, ``sim_ms``) must repeat exactly.
WALL_CLOCK_UNITS = ("s", "ms", "us", "1/s", "wall_share", "wall_ratio")
#: Passes per set in ``--agree``.
AGREE_ROUNDS = 3


def pin_environment() -> None:
    """One process, one thread: the worker pool and the sharded core are
    out of scope, and no stray ``REPRO_*`` knob may leak in."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_WORKERS"] = "1"
    os.environ["REPRO_SHARDS"] = "1"


def run_child(workload: str, args, trace: int) -> dict:
    """One workload in a fresh interpreter; its parsed result line."""
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scale", repr(args.scale), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode:
        sys.exit(f"bench: {workload} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_set(args, trace: int, show: bool = True) -> dict[str, dict]:
    """Every workload's result, ``{workload: result}``."""
    results = {}
    for workload in (item["name"] for item in load_spec()["workloads"]):
        result = results[workload] = run_child(workload, args, trace)
        if show:
            print(f"== {workload} ({'traced' if trace else 'timed'} run): "
                  f"attempted {result['attempted']}, failed "
                  f"{result['failed']}, outputs "
                  f"{'correct' if result['correct'] else 'WRONG'}")
            for name, metric in result["metrics"].items():
                print(f"  {name:<40} {metric['value']:>16.6g} "
                      f"{metric['unit']}")
    return results


def all_good(results: dict[str, dict]) -> bool:
    return all(result["correct"] and not result["failed"]
               for result in results.values())


def machine_line() -> str:
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"1-minute load average {os.getloadavg()[0]:.2f}")


def agree(args) -> int:
    """Two sets of runs of the same code, side by side: each end-to-end
    metric's relative difference (in its worse direction) beside its
    bound, and the exact metrics (simulated clock, counters) bit for bit.

    A set is ``AGREE_ROUNDS`` passes over the workloads, its value the
    median over them, and the two sets take turns pass by pass — one
    neighbour episode on this box moves a single run by 20–35 %, more
    than any bound, and would otherwise land on one set alone.
    """
    print(machine_line())
    spec = load_spec()
    rounds = [(run_set(args, 0, show=False), run_set(args, 0, show=False))
              for _ in range(AGREE_ROUNDS)]
    ok = all(all_good(results) for pair in rounds for results in pair)
    print(f"{'workload':<13} {'metric':<18} {'first':>12} {'second':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for workload in rounds[0][0]:
        for metric in spec["end_to_end"]:
            values = [[results[workload]["metrics"][metric["name"]]["value"]
                       for results in side] for side in zip(*rounds)]
            a, b = (statistics.median(side) for side in values)
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            flag = "" if worse <= metric["bound"] else "  << DISAGREE"
            if metric["unit"] == "sim_ms" and len(set(sum(values, []))) > 1:
                flag = "  << NOT EXACT"
            ok = ok and not flag
            print(f"{workload:<13} {metric['name']:<18} {a:>12.5g} "
                  f"{b:>12.5g} {worse:>+9.1%} {metric['bound']:>6.0%}{flag}")
    traced = [run_set(args, 1, show=False) for _ in range(2)]
    ok = ok and all_good(traced[0]) and all_good(traced[1])
    exact = [metric["name"] for metric in spec["per_layer"]
             if metric["unit"] not in WALL_CLOCK_UNITS]
    for workload in traced[0]:
        for name in exact:
            a, b = (run[workload]["metrics"][name]["value"] for run in traced)
            if a != b:
                ok = False
                print(f"{workload:<13} {name}: {a!r} != {b!r}  << NOT EXACT")
    print(f"{len(exact)} simulated-clock metrics and counters compared "
          "bit for bit on each workload")
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload, here")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload's input (tests)")
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_environment()

    if args.agree:
        return agree(args)
    if args.workload is None:
        print(machine_line())
        return 0 if all_good(run_set(args, args.trace)) else 1

    require_repro()
    from bench import runner

    if args.workload not in runner.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_only:
        workload = runner.WORKLOADS[args.workload]
        workload.warmup(workload.plan(args.seed, args.scale))
        return 0
    if args.trace:
        result = runner.run_traced(args.workload, args.seed, args.scale)
    else:
        result = runner.run_end_to_end(args.workload, args.seed,
                                       args.seconds, args.scale)
    print(json.dumps({key: result[key] for key in CONTRACT_KEYS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
