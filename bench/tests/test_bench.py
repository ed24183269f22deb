"""The benchmark's own tests (outside tier 1).

Run with ``python -m pytest bench/tests -q`` from the repo root. Every
run here is tiny (``scale`` ≈ 0.05, no minimum measuring time), so the
numbers mean nothing — the tests pin the *shape* of the output: every
metric ``BENCHMARK.json`` names is there with its unit, seeds steer the
inputs, and a failing load is counted, never hidden behind a plausible
PLT.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import bench

bench.require_repro()

from bench import runner, workloads  # noqa: E402
from bench.harness import Spans, digest  # noqa: E402

SPEC = bench.load_spec()
NAMES = [item["name"] for item in SPEC["workloads"]]
SCALE = 0.05

_cache: dict = {}


def timed(name: str, seed: int = 1) -> dict:
    key = ("timed", name, seed)
    if key not in _cache:
        _cache[key] = runner.run_end_to_end(name, seed, seconds=0.0,
                                            scale=SCALE, setup_runs=1)
    return _cache[key]


def traced(name: str, seed: int = 1) -> dict:
    key = ("traced", name, seed)
    if key not in _cache:
        _cache[key] = runner.run_traced(name, seed, scale=SCALE)
    return _cache[key]


def test_spec_names_exactly_the_workloads():
    assert NAMES == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["bench"]
    assert any(metric["name"] == "setup_s" and metric["unit"] == "s"
               and metric["better"] == "lower"
               for metric in SPEC["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_timed_run_has_every_end_to_end_metric(name):
    result = timed(name)
    assert result["correct"], name
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"]
                for metric in SPEC["end_to_end"]}
    assert {metric: value["unit"]
            for metric, value in result["metrics"].items()} == expected
    for metric, value in result["metrics"].items():
        assert value["value"] > 0, metric  # never 0: a bound is a ratio


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_has_every_per_layer_metric(name):
    result = traced(name)
    assert result["correct"], name
    expected = {metric["name"]: metric["unit"]
                for metric in SPEC["per_layer"]}
    assert {metric: value["unit"]
            for metric, value in result["metrics"].items()} == expected
    values = {metric: value["value"]
              for metric, value in result["metrics"].items()}
    assert values["phase.run_s"] > 0 and values["phase.build_s"] > 0
    assert values["simnet.events.per_load"] > 0
    assert values["harness.trace_overhead_ratio"] > 1.0
    shares = [values[f"{layer}.self_share"] for layer in runner.LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    # The timed and the traced run saw the same simulated results.
    assert result["digest"] == timed(name)["digest"]
    assert (bench.OUT_DIR / f"spans-{name}-1.json").is_file()


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_exactly(name):
    workload = workloads.WORKLOADS[name]
    first = workload.repetition(workload.plan(7, SCALE), Spans(False))
    again = workload.repetition(workload.plan(7, SCALE), Spans(False))
    assert digest(first.loads) == digest(again.loads)
    assert dict(first.counters) == dict(again.counters)
    assert (runner.counter_metrics(first)
            == runner.counter_metrics(again))


@pytest.mark.parametrize("name", [name for name in NAMES
                                  if name != "flash_crowd"])
def test_another_seed_is_another_input(name):
    workload = workloads.WORKLOADS[name]
    first = workload.repetition(workload.plan(7, SCALE), Spans(False))
    other = workload.repetition(workload.plan(8, SCALE), Spans(False))
    assert digest(first.loads) != digest(other.loads)
    assert dict(first.counters) != dict(other.counters)


def test_flash_crowd_input_is_pinned():
    workload = workloads.WORKLOADS["flash_crowd"]
    assert workload.plan(7, 1.0) == workload.plan(8, 1.0)
    assert workload.plan(7, 1.0) == workloads.overload.DEFAULT_CONFIG


def test_oracle_runs_a_prefix_of_the_fast_path_inputs():
    fast = workloads.WORKLOADS["fig3_local"].plan(3, 1.0)
    oracle = workloads.WORKLOADS["fig3_oracle"].plan(3, 1.0)
    assert len(fast) == 600 and len(oracle) == 160
    assert fast[:len(oracle)] == oracle


def test_a_failing_load_is_counted(monkeypatch):
    """A page on a host nobody serves: the load ends with a PLT like any
    other, and must show up in ``failed`` all the same."""
    from repro.core.browser.page import synthetic_page

    real = workloads.local_setup.make_page

    def broken(condition, n_resources, seed):
        if condition == "BGP/IP-only":
            return synthetic_page("nowhere.invalid", n_resources=n_resources,
                                  seed=seed)
        return real(condition, n_resources, seed)

    monkeypatch.setattr(workloads.local_setup, "make_page", broken)
    result = runner.run_end_to_end("fig3_local", 1, seconds=0.0,
                                   scale=SCALE, setup_runs=1)
    per_rep = len(workloads.WORKLOADS["fig3_local"].plan(1, SCALE)) // 4
    assert result["failed"] == per_rep * runner.MIN_REPS
    assert result["failed"] / result["attempted"] == pytest.approx(0.25)
    assert not result["correct"]  # Figure 3 lost a condition


def run_cli(cwd, *args):
    return subprocess.run([sys.executable, "-m", "bench", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


def test_cli_prints_the_contract_line_last():
    done = run_cli(bench.ROOT, "--workload", "fig56_remote", "--seed", "2",
                   "--seconds", "0", "--scale", "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and isinstance(result["attempted"], int)


def test_cli_fails_without_the_simulator_source(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_cli(tmp_path, "--workload", "city", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
