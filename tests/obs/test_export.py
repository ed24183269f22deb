"""JSON artifact round trips, reports, and diffs."""

import json

import pytest

from repro.errors import ReproError
from repro.experiments.harness import observe_world
from repro.experiments.local_setup import FIGURE3
from repro.obs.export import (ARTIFACT_VERSION, artifact_digest,
                              build_artifact, diff_report, load_artifact,
                              render_report, write_artifact)


@pytest.fixture(scope="module")
def traced_world():
    world, result = FIGURE3.traced("mixed SCION-IP", seed=131,
                                   n_resources=4)
    return world, result.plt_ms


def artifact_of(world, **kwargs):
    return build_artifact(world.tracer, observe_world(world), **kwargs)


class TestArtifacts:
    def test_build_has_all_sections(self, traced_world):
        world, _plt = traced_world
        artifact = artifact_of(world, label="t")
        assert artifact["version"] == ARTIFACT_VERSION
        assert artifact["label"] == "t"
        assert artifact["spans"]
        assert artifact["metrics"]["counters"]
        assert artifact["waterfalls"]
        json.dumps(artifact)  # JSON-encodable end to end

    def test_snapshot_cache_gauges_reexported(self, traced_world):
        # ... under ``process``, outside the metrics and the digest: the
        # counters are cumulative over the process, not the world.
        world, _plt = traced_world
        artifact = artifact_of(world, label="t")
        cache = artifact["process"]["snapshot_cache"]
        assert set(cache) == {"hits", "misses", "bypasses", "evictions",
                              "size"}
        assert not any(key.startswith("snapshot_cache")
                       for key in artifact["metrics"]["gauges"])
        moved = json.loads(json.dumps(artifact))
        moved["process"]["snapshot_cache"]["hits"] += 420
        assert artifact_digest(moved) == artifact_digest(artifact)
        assert "(no metric differences)" in diff_report(artifact, moved)

    def test_write_then_load_round_trips(self, traced_world, tmp_path):
        world, _plt = traced_world
        artifact = artifact_of(world, label="t", extra={"seed": 131})
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
        text = render_report(artifact_of(world, label="t"))
        assert "t" in text
        assert "proxy_scion_requests" in text

    def test_diff_of_identical_artifacts_is_quiet(self, traced_world):
        world, _plt = traced_world
        artifact = artifact_of(world, label="t")
        assert "(no metric differences)" in diff_report(artifact, artifact)

    def test_diff_surfaces_changed_counters(self, traced_world):
        world, _plt = traced_world
        a = artifact_of(world, label="a")
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
