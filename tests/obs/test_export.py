"""JSON artifact round trips, reports, and diffs."""

import json

import pytest

from repro.errors import ReproError
from repro.experiments.local_setup import FIGURE3
from repro.obs.export import (ARTIFACT_VERSION, build_artifact, diff_report,
                              load_artifact, render_report, write_artifact)


@pytest.fixture(scope="module")
def traced_world():
    world, result = FIGURE3.traced("mixed SCION-IP", seed=131,
                                   n_resources=4)
    return world, result.plt_ms


class TestArtifacts:
    def test_build_has_all_sections(self, traced_world):
        world, _plt = traced_world
        artifact = build_artifact(world.tracer, label="t")
        assert artifact["version"] == ARTIFACT_VERSION
        assert artifact["label"] == "t"
        assert artifact["spans"]
        assert artifact["metrics"]["counters"]
        assert artifact["waterfalls"]
        json.dumps(artifact)  # JSON-encodable end to end

    def test_snapshot_cache_gauges_reexported(self, traced_world):
        world, _plt = traced_world
        gauges = build_artifact(world.tracer, label="t")["metrics"]["gauges"]
        assert "snapshot_cache_hit_ratio" in gauges
        assert 0.0 <= gauges["snapshot_cache_hit_ratio"] <= 1.0
        assert "snapshot_cache_size" in gauges

    def test_write_then_load_round_trips(self, traced_world, tmp_path):
        world, _plt = traced_world
        artifact = build_artifact(world.tracer, label="t",
                                  extra={"seed": 131})
        path = tmp_path / "nested" / "trace.json"
        write_artifact(path, artifact)
        assert load_artifact(path) == artifact
        assert load_artifact(path)["extra"]["seed"] == 131

    def test_load_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ReproError):
            load_artifact(path)

    def test_render_report_smoke(self, traced_world):
        world, _plt = traced_world
        text = render_report(build_artifact(world.tracer, label="t"))
        assert "t" in text
        assert "requests_total" in text

    def test_diff_of_identical_artifacts_is_quiet(self, traced_world):
        world, _plt = traced_world
        artifact = build_artifact(world.tracer, label="t")
        assert "(no metric differences)" in diff_report(artifact, artifact)

    def test_diff_surfaces_changed_counters(self, traced_world):
        world, _plt = traced_world
        a = build_artifact(world.tracer, label="a")
        b = json.loads(json.dumps(a))
        key = next(iter(b["metrics"]["counters"]))
        b["metrics"]["counters"][key] += 5
        text = diff_report(a, b)
        assert key in text
        assert "(no metric differences)" not in text


class TestCli:
    def test_selftest_exits_zero(self):
        from repro.obs.__main__ import main
        assert main(["--selftest"]) == 0

    def test_trace_report_diff_round_trip(self, tmp_path, capsys):
        from repro.obs.__main__ import main
        out = tmp_path / "t.json"
        assert main(["trace", "--setup", "local", "--seed", "101",
                     "--n-resources", "3", "--out", str(out)]) == 0
        assert out.exists()
        assert main(["report", str(out)]) == 0
        assert main(["diff", str(out), str(out)]) == 0
        captured = capsys.readouterr()
        assert "(no metric differences)" in captured.out
