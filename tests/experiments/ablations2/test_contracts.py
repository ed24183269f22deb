"""Contract verification and importance math, piece by piece.

The exact checks (`verify_contract`), the delta/spread/score units, and
the error-row guarantee: a component whose run raises is *reported*,
never dropped.
"""

import dataclasses

import pytest

from repro.experiments import components as ab

TINY = ab.AblationConfig(conditions=("SCION-only",), trials=1,
                         n_resources=4, resilience_trials=1,
                         resilience_loads=2, contract_trials=1)


@pytest.fixture(scope="module")
def baseline_probe():
    return ab._contract_probe(ab.default_knob_states(), TINY,
                              obs=False, jitter=True)


@pytest.fixture(scope="module")
def baseline_probe_nojitter():
    return ab._contract_probe(ab.default_knob_states(), TINY,
                              obs=False, jitter=False)


class TestVerifyContract:
    def test_bit_identical_contract_passes(self, baseline_probe):
        ok, detail = ab.verify_contract(ab.component("snapshot_cache"),
                                        TINY, baseline_probe, ())
        assert ok
        assert "bit-identical" in detail

    def test_statistical_contract_passes(self, baseline_probe,
                                         baseline_probe_nojitter):
        ok, detail = ab.verify_contract(ab.component("fastpath"), TINY,
                                        baseline_probe,
                                        baseline_probe_nojitter)
        assert ok
        assert "PLT error" in detail

    def test_broken_bit_identity_is_detected(self, baseline_probe):
        """A component wrongly promising bit-identity is caught: the
        fast path's off-switch *does* move jittered PLTs (expected-value
        draws), so this fake claim must fail the exact check."""
        liar = dataclasses.replace(ab.component("fastpath"),
                                   contract=ab.BIT_IDENTICAL)
        ok, detail = ab.verify_contract(liar, TINY, baseline_probe, ())
        assert not ok
        assert "differ" in detail

    def test_unknown_contract_raises(self, baseline_probe):
        bogus = dataclasses.replace(ab.component("fastpath"),
                                    contract="unicorn")
        with pytest.raises(ValueError):
            ab.verify_contract(bogus, TINY, baseline_probe, ())


class TestErrorRows:
    def test_broken_component_becomes_an_error_row(self):
        """Satellite guarantee: a failing toggle is an ``error`` row at
        the top of the ranking, never silently dropped."""
        broken = dataclasses.replace(ab.component("snapshot_cache"),
                                     name="broken", contract="unicorn")
        report = ab.run_ablations(
            TINY, components=(broken, ab.component("snapshot_cache")))
        row = report.result("broken")
        assert row.status == "error"
        assert "unicorn" in row.error
        assert report.ranked[0] is row  # errors sort first
        assert not report.all_ok
        assert report.result("snapshot_cache").status == "ok"
        payload = report.to_json()
        assert payload["all_ok"] is False
        names = [entry["name"] for entry in payload["components"]]
        assert "broken" in names
        assert "ERROR" in report.render()

    def test_clean_subset_is_all_ok(self):
        report = ab.run_ablations(
            TINY, components=(ab.component("snapshot_cache"),))
        assert report.all_ok
        assert report.result("snapshot_cache").contract_ok


class TestImportanceMath:
    def test_percentile_interpolates(self):
        values = [0.0, 10.0, 20.0, 30.0]
        assert ab.percentile(values, 0.50) == pytest.approx(15.0)
        assert ab.percentile(values, 0.95) == pytest.approx(28.5)
        assert ab.percentile([7.0], 0.95) == 7.0
        assert ab.percentile([], 0.50) == 0.0

    def test_metric_deltas_percent_and_absolute(self):
        deltas = ab.metric_deltas({"plt_ms": 100.0, "failed": 0.0},
                                  {"plt_ms": 120.0, "failed": 3.0})
        assert deltas["plt_ms"]["delta_abs"] == pytest.approx(20.0)
        assert deltas["plt_ms"]["delta_pct"] == pytest.approx(20.0)
        assert deltas["failed"]["delta_pct"] is None  # zero baseline
        assert deltas["failed"]["delta_abs"] == pytest.approx(3.0)

    def test_metric_deltas_skips_one_sided_metrics(self):
        assert ab.metric_deltas({"only_base": 1.0}, {}) == {}

    def test_rank_score_is_largest_declared_movement(self):
        comp = ab.component("revocation")  # ttr_ms, plt_ms, failed_requests
        deltas = ab.metric_deltas(
            {"ttr_ms": 100.0, "plt_ms": 50.0, "failed_requests": 0.0,
             "wallclock_ms": 10.0},
            {"ttr_ms": 150.0, "plt_ms": 55.0, "failed_requests": 2.0,
             "wallclock_ms": 1000.0})
        # wallclock moved 9900% but is not a declared metric.
        assert ab.rank_score(comp, deltas) == pytest.approx(50.0)

    def test_rank_score_falls_back_to_absolute(self):
        comp = ab.component("revocation")
        deltas = ab.metric_deltas({"failed_requests": 0.0},
                                  {"failed_requests": 4.0})
        assert ab.rank_score(comp, deltas) == pytest.approx(4.0)

    def test_sample_delta_spread_pairs_by_seed(self):
        base = ab.BatteryRun(battery=ab.FIGURE3,
                             samples=((100.0, 1.0), (200.0, 1.0)),
                             wallclock_ms=1.0, metrics={})
        off = ab.BatteryRun(battery=ab.FIGURE3,
                            samples=((110.0, 1.0), (190.0, 1.0)),
                            wallclock_ms=1.0, metrics={})
        spread = ab.sample_delta_spread(base, off)
        assert spread["p50"] == pytest.approx(2.5)   # mid of +10%, -5%
        assert spread["p95"] == pytest.approx(9.25)


class TestReportShape:
    def _row(self, name, status="ok", score=0.0, contract_ok=True):
        return ab.ComponentResult(
            component=dataclasses.replace(ab.component("snapshot_cache"),
                                          name=name),
            status=status, score=score, contract_ok=contract_ok,
            error="boom" if status == "error" else None)

    def test_ranking_orders_errors_then_score(self):
        report = ab.AblationReport(config=TINY)
        report.results = [self._row("small", score=1.0),
                          self._row("big", score=9.0),
                          self._row("bad", status="error")]
        assert [r.component.name for r in report.ranked] == \
            ["bad", "big", "small"]

    def test_contract_failure_fails_the_report(self):
        report = ab.AblationReport(config=TINY)
        report.results = [self._row("a", contract_ok=False)]
        assert not report.contracts_ok
        assert not report.all_ok

    def test_unknown_result_lookup_raises(self):
        report = ab.AblationReport(config=TINY)
        with pytest.raises(KeyError):
            report.result("nope")

    def test_unknown_battery_raises(self):
        with pytest.raises(ValueError):
            ab.run_battery(dataclasses.replace(ab.FIGURE3, name="nope"),
                           {}, TINY)
