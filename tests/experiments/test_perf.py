"""The perf module: workloads, trajectory file, CLI."""

import json

import pytest

from repro import perf


class TestTrajectoryFile:
    def test_append_creates_and_extends(self, tmp_path):
        target = tmp_path / "BENCH_results.json"
        perf.append_rows([{"a": 1}], path=target)
        perf.append_rows([{"b": 2}], path=target)
        payload = json.loads(target.read_text())
        assert payload["schema"] == perf.BENCH_SCHEMA
        assert payload["rows"] == [{"a": 1}, {"b": 2}]

    def test_corrupt_file_starts_fresh(self, tmp_path):
        target = tmp_path / "BENCH_results.json"
        target.write_text("{not json")
        perf.append_rows([{"a": 1}], path=target)
        assert json.loads(target.read_text())["rows"] == [{"a": 1}]

    def test_env_var_redirects_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv(perf.BENCH_FILE_ENV, str(tmp_path / "out.json"))
        assert perf.bench_results_path() == tmp_path / "out.json"

    def test_default_path_is_repo_root(self, monkeypatch):
        monkeypatch.delenv(perf.BENCH_FILE_ENV, raising=False)
        path = perf.bench_results_path()
        assert path.name == "BENCH_results.json"
        assert (path.parent / "pyproject.toml").exists()


class TestWorkloads:
    def test_event_throughput_fields(self):
        row = perf.measure_event_throughput(n_events=2_000, repeats=1)
        assert row["events_per_sec"] > 0
        assert row["coroutine_events_per_sec"] > 0
        assert row["workload"].startswith("event-loop/")

    def test_battery_is_deterministic_and_timed(self):
        row = perf.measure_battery(trials=2, n_resources=4, workers=1)
        assert row["identical"] is True
        assert row["serial_s"] > 0
        assert row["parallel_s"] > 0

    def test_snapshot_cache_row_is_deterministic_and_timed(self):
        row = perf.measure_snapshot_cache(trials=2, n_resources=4)
        assert row["identical"] is True
        assert row["uncached_trial_ms"] > 0
        assert row["cached_trial_ms"] > 0
        assert row["workload"].startswith("snapshot-cache-remote/")
        # The world it times has a control plane worth caching (seven
        # key pairs, signed beacons, BGP); on a single-AS world the
        # speedup would be flat by construction.
        assert row["snapshot_speedup"] > 1.2

    def test_render_mentions_speedup(self):
        rows = [{"workload": "figure3-battery/2x4", "serial_s": 1.0,
                 "parallel_s": 0.5, "spawn_s": 0.1, "speedup": 2.0,
                 "workers": 4, "identical": True}]
        text = perf.render(rows)
        assert "speedup 2.00x" in text
        assert "deterministic" in text


def _run_rows(ts, events=1000.0, coroutine=500.0, serial=10.0,
              parallel=2.0, label="full"):
    """Synthetic throughput + battery rows of one ``run_suite`` run."""
    return [
        {"ts": ts, "label": label, "events_per_sec": events,
         "coroutine_events_per_sec": coroutine},
        {"ts": ts, "label": label, "serial_s": serial,
         "parallel_s": parallel},
    ]


class TestCompareRuns:
    def test_needs_two_full_runs(self):
        assert perf.compare_runs([]) is None
        assert perf.compare_runs(_run_rows("t1")) is None

    def test_quick_runs_are_ignored(self):
        rows = _run_rows("t1") + _run_rows("t2", label="quick")
        assert perf.compare_runs(rows) is None

    def test_clean_comparison_has_no_regressions(self):
        rows = _run_rows("t1") + _run_rows("t2", events=1050.0, serial=9.5)
        report = perf.compare_runs(rows)
        assert report["baseline_ts"] == "t1"
        assert report["current_ts"] == "t2"
        assert report["regressions"] == []
        assert len(report["metrics"]) == 4

    def test_throughput_drop_is_flagged(self):
        rows = _run_rows("t1") + _run_rows("t2", events=800.0)
        report = perf.compare_runs(rows)
        assert report["regressions"] == ["events_per_sec"]

    def test_wall_clock_growth_is_flagged(self):
        rows = _run_rows("t1") + _run_rows("t2", serial=12.0, parallel=2.5)
        report = perf.compare_runs(rows)
        assert set(report["regressions"]) == {"serial_s", "parallel_s"}

    def test_ten_percent_boundary_is_not_a_regression(self):
        rows = _run_rows("t1") + _run_rows("t2", events=900.0, serial=11.0)
        assert perf.compare_runs(rows)["regressions"] == []

    def test_baseline_is_median_of_recent_runs(self):
        """One lucky outlier run in the window is voted out: pairwise
        t3-vs-t4 (or mean-of-window) would call the return to ~1000
        ev/s a regression against t1's 2000."""
        rows = (_run_rows("t1", events=2000.0) + _run_rows("t2")
                + _run_rows("t3", events=980.0)
                + _run_rows("t4", events=1020.0))
        report = perf.compare_runs(rows)
        assert report["baseline_ts"] == "t3"
        assert report["baseline_runs"] == 3
        events = next(m for m in report["metrics"]
                      if m["metric"] == "events_per_sec")
        assert events["baseline"] == 1000.0
        assert report["regressions"] == []

    def test_runs_outside_window_are_ignored(self):
        """Two ancient 10k-ev/s runs would drag a four-run median up to
        5500 and flag everything; only the last three runs count."""
        rows = (_run_rows("t1", events=10_000.0)
                + _run_rows("t2", events=10_000.0)
                + _run_rows("t3") + _run_rows("t4")
                + _run_rows("t5", events=1020.0))
        report = perf.compare_runs(rows)
        assert report["baseline_runs"] == 3
        events = next(m for m in report["metrics"]
                      if m["metric"] == "events_per_sec")
        assert events["baseline"] == 1000.0
        assert report["regressions"] == []

    def test_metric_compares_only_against_the_same_workload(self):
        """The ablation sweep's wall-clock grows with every registered
        component, and a renamed workload times a different world:
        neither may be judged against baseline rows that measured
        something else."""
        def run(ts, components, sweep_ms, workload, cached_ms):
            return _run_rows(ts) + [
                {"ts": ts, "label": "full", "workload": "ablations2/selftest",
                 "ablate_components": components,
                 "ablate_selftest_ms": sweep_ms},
                {"ts": ts, "label": "full", "workload": workload,
                 "cached_trial_ms": cached_ms}]

        rows = (run("t1", 10, 3000.0, "snapshot-cache/8x12", 2.0)
                + run("t2", 10, 3200.0, "snapshot-cache/8x12", 2.1)
                + run("t3", 12, 4800.0, "snapshot-cache-remote/8x9", 18.0))
        report = perf.compare_runs(rows)
        status = {m["metric"]: m["status"] for m in report["metrics"]}
        assert status["ablate_selftest_ms"] == "new"
        assert status["cached_trial_ms"] == "new"
        assert report["regressions"] == []

        rows += run("t4", 12, 6000.0, "snapshot-cache-remote/8x9", 25.0)
        report = perf.compare_runs(rows)
        by_name = {m["metric"]: m for m in report["metrics"]}
        assert by_name["ablate_selftest_ms"]["baseline"] == 4800.0
        assert by_name["cached_trial_ms"]["baseline"] == 18.0
        assert set(report["regressions"]) == {"ablate_selftest_ms",
                                              "cached_trial_ms"}

    def test_improvements_are_never_regressions(self):
        rows = _run_rows("t1") + _run_rows("t2", events=5000.0,
                                           coroutine=5000.0, serial=1.0,
                                           parallel=0.2)
        assert perf.compare_runs(rows)["regressions"] == []

    def test_render_marks_regressions(self):
        rows = _run_rows("t1") + _run_rows("t2", events=800.0)
        text = perf.render_comparison(perf.compare_runs(rows))
        assert "REGRESSION" in text
        assert "events_per_sec" in text

    def test_render_reports_clean_runs(self):
        rows = _run_rows("t1") + _run_rows("t2")
        text = perf.render_comparison(perf.compare_runs(rows))
        assert "no regressions" in text


class TestCompareCli:
    def _write(self, tmp_path, monkeypatch, rows):
        target = tmp_path / "bench.json"
        monkeypatch.setenv(perf.BENCH_FILE_ENV, str(target))
        target.write_text(json.dumps({"schema": perf.BENCH_SCHEMA,
                                      "rows": rows}))

    def test_exit_zero_without_enough_runs(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv(perf.BENCH_FILE_ENV,
                           str(tmp_path / "missing.json"))
        assert perf.main(["--compare"]) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_exit_zero_on_clean_diff(self, tmp_path, monkeypatch, capsys):
        self._write(tmp_path, monkeypatch,
                    _run_rows("t1") + _run_rows("t2"))
        assert perf.main(["--compare"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, monkeypatch, capsys):
        self._write(tmp_path, monkeypatch,
                    _run_rows("t1") + _run_rows("t2", serial=20.0))
        assert perf.main(["--compare"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_malformed_file_reads_as_empty(self, tmp_path, monkeypatch):
        target = tmp_path / "bench.json"
        monkeypatch.setenv(perf.BENCH_FILE_ENV, str(target))
        target.write_text("{broken")
        assert perf.load_rows() == []
        assert perf.main(["--compare"]) == 0


class TestCli:
    def test_quick_run_records_rows(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "bench.json"
        monkeypatch.setenv(perf.BENCH_FILE_ENV, str(target))
        assert perf.main(["--quick", "--workers", "1"]) == 0
        payload = json.loads(target.read_text())
        assert len(payload["rows"]) == 9
        assert any("events_per_sec" in row for row in payload["rows"])
        assert any("serial_s" in row for row in payload["rows"])
        assert any("cached_trial_ms" in row for row in payload["rows"])
        assert any("traced_trial_ms" in row for row in payload["rows"])
        assert any("recovery_ms" in row for row in payload["rows"])
        assert any("fastpath_trial_ms" in row for row in payload["rows"])
        assert any("population_users_per_sec" in row
                   for row in payload["rows"])
        assert any("overload_shed_fraction" in row
                   for row in payload["rows"])
        assert any("ablate_selftest_ms" in row for row in payload["rows"])
        assert "repro.perf" in capsys.readouterr().out

    def test_no_write_leaves_file_alone(self, tmp_path, monkeypatch):
        target = tmp_path / "bench.json"
        monkeypatch.setenv(perf.BENCH_FILE_ENV, str(target))
        assert perf.main(["--quick", "--workers", "1", "--no-write"]) == 0
        assert not target.exists()
