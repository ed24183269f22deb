"""End-to-end sweeps: the auto-generated baseline + leave-one-out runs,
the ranked report, the JSON artifact, and the CLI gate."""

import json

import pytest

from repro.experiments import ablations2 as ab
from repro.experiments.__main__ import main

SMALL = ab.AblationConfig(conditions=("SCION-only",), trials=2,
                          n_resources=4, resilience_trials=1,
                          resilience_loads=2, contract_trials=1)

SUBSET = (ab.component("snapshot_cache"), ab.component("tracing"),
          ab.component("revocation"))


@pytest.fixture(scope="module")
def report():
    return ab.run_ablations(SMALL, components=SUBSET)


class TestSweep:
    def test_one_result_per_component(self, report):
        assert [r.component.name for r in report.results] == \
            [c.name for c in SUBSET]
        assert all(r.status == "ok" for r in report.results)

    def test_every_contract_verified(self, report):
        assert report.contracts_ok
        assert report.all_ok
        for row in report.results:
            assert row.contract_ok is True
            assert row.contract_detail

    def test_every_toggle_left_evidence(self, report):
        for row in report.results:
            assert row.evidence, row.component.name

    def test_baselines_cover_both_batteries(self, report):
        assert set(report.baselines) == {"figure3", "resilience"}
        for run in report.baselines.values():
            assert run.wallclock_ms > 0
            assert run.samples

    def test_revocation_dominates_the_ranking(self, report):
        """Revocation dissemination is the one component here whose
        loss changes *outcomes* (TTR, failed fetches), not just
        wall-clock; it must rank above the pure-speed components."""
        row = report.result("revocation")
        assert row.score > 0
        assert report.ranked[0].component.name == "revocation"
        assert row.deltas["ttr_ms"]["delta_abs"] > 0

    def test_deltas_carry_base_and_off(self, report):
        row = report.result("snapshot_cache")
        assert set(row.deltas) >= {"wallclock_ms", "plt_ms"}
        for cell in row.deltas.values():
            assert set(cell) == {"base", "off", "delta_abs", "delta_pct"}

    def test_spread_has_percentiles(self, report):
        for row in report.results:
            assert set(row.spread) == {"p50", "p95"}


class TestJsonShape:
    def test_roundtrips_and_has_the_headline_keys(self, report):
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["contracts_ok"] is True
        assert payload["all_ok"] is True
        assert payload["ranking"][0] == "revocation"
        assert set(payload["baselines"]) == {"figure3", "resilience"}
        entry = payload["components"][0]
        assert set(entry) >= {"name", "knob", "contract", "battery",
                              "status", "deltas", "spread", "rank_score",
                              "contract_ok", "evidence"}
        assert payload["config"]["trials"] == SMALL.trials

    def test_render_mentions_every_component(self, report):
        text = report.render()
        for comp in SUBSET:
            assert comp.name in text
        assert "baseline figure3" in text
        assert "contract=bit_identical:PASS" in text


class TestCli:
    def test_selftest_gate_passes_and_writes_json(self, tmp_path, capsys):
        target = tmp_path / "ablations2.json"
        assert main(["components", "--selftest", "--json",
                     str(target)]) == 0
        out = capsys.readouterr().out
        assert "leave-one-out importance" in out
        payload = json.loads(target.read_text())
        assert payload["all_ok"] is True
        assert len(payload["components"]) == len(ab.COMPONENTS)
