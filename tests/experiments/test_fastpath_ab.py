"""The fast-path A/B harness and the determinism guarantees the fast
path must not break.

* :func:`repro.experiments.fastpath_ab.run_ab` — paired, jitter-free
  comparison across every figure condition, within the documented bound;
* its contended cells — a city and both overload arms, gated at
  distribution level (``--selftest`` runs them, so the CLI test is
  that gate: city mean inside 1 % and p50/p95/p99 inside 2 %, both
  arms inside 3 % with the same loads succeeding +- 5);
* fault and resilience batteries — bit-identical whether the fast path
  is enabled or not (chaos worlds run pure packet-level);
* serial and worker-pool figure-3 batteries — bit-identical with the
  fast path on.
"""

import pytest

from repro.experiments import fastpath_ab
from repro.experiments.__main__ import main


class TestConditionReport:
    def _report(self, oracle=(100.0, 200.0), fast=(100.0, 200.0),
                oracle_s=2.0, fastpath_s=1.0):
        return fastpath_ab.ConditionReport(
            figure="3", condition="SCION-only",
            oracle_plts=oracle, fastpath_plts=fast,
            oracle_s=oracle_s, fastpath_s=fastpath_s)

    def test_exact_match_is_zero_error(self):
        report = self._report()
        assert report.max_rel_error == 0.0
        assert report.within_bound
        assert report.speedup == pytest.approx(2.0)

    def test_worst_seed_sets_the_error(self):
        report = self._report(fast=(100.0, 205.0))
        assert report.max_rel_error == pytest.approx(0.025)
        assert not report.within_bound

    def test_ab_report_aggregates(self):
        report = fastpath_ab.AbReport(conditions=[
            self._report(), self._report(oracle_s=4.0, fastpath_s=1.0)])
        assert report.within_bound
        assert report.speedup == pytest.approx(3.0)
        assert "PASS" in report.render()

    def test_render_flags_bound_violation(self):
        report = fastpath_ab.AbReport(conditions=[
            self._report(fast=(100.0, 225.0))])
        text = report.render()
        assert "EXCEEDS BOUND" in text
        assert "FAIL" in text

    def test_oracle_drift_fails_the_run(self):
        report = fastpath_ab.AbReport(conditions=[self._report()],
                                      oracle_repeatable=False)
        assert not report.within_bound


class TestContendedReport:
    ORACLE = tuple((100.0 + index, False) for index in range(100))

    def _cell(self, fast, mean_bound=0.01, quantile_bound=0.02,
              ok_loads_bound=0, oracle=ORACLE):
        return fastpath_ab.ContendedReport(
            name="cell", oracle_loads=oracle, fastpath_loads=tuple(fast),
            mean_bound=mean_bound, quantile_bound=quantile_bound,
            ok_loads_bound=ok_loads_bound, oracle_s=3.0, fastpath_s=1.0)

    def test_identical_distributions_pass(self):
        cell = self._cell(self.ORACLE)
        assert cell.mean_error == 0.0
        assert set(cell.quantile_errors().values()) == {0.0}
        assert cell.per_load_errors() == (0.0, 0.0)
        assert cell.ok_loads == (100, 100)
        assert cell.within_bound
        assert cell.speedup == pytest.approx(3.0)

    def test_a_reordering_moves_loads_but_not_the_distribution(self):
        """Why per-load error is information only: the same PLTs on
        different loads are the same distribution."""
        cell = self._cell(reversed(self.ORACLE))
        assert cell.within_bound
        assert cell.per_load_errors()[1] > 0.4

    def test_mean_and_quantiles_are_gated_separately(self):
        shifted = [(plt * 1.015, failed) for plt, failed in self.ORACLE]
        assert self._cell(shifted).mean_error == pytest.approx(0.015)
        assert not self._cell(shifted).within_bound
        assert self._cell(shifted, mean_bound=0.03).within_bound
        tail = list(self.ORACLE[:-3]) + [(plt * 1.05, False)
                                         for plt, _f in self.ORACLE[-3:]]
        assert abs(self._cell(tail).mean_error) < 0.01
        assert self._cell(tail).quantile_errors()["p99"] > 0.02
        assert not self._cell(tail).within_bound
        assert self._cell(tail, quantile_bound=None).within_bound

    def test_successful_loads_must_match_within_their_bound(self):
        fewer = [(plt, index < 6) for index, (plt, _f)
                 in enumerate(self.ORACLE)]
        assert self._cell(fewer, mean_bound=0.05, quantile_bound=None,
                          ok_loads_bound=5).ok_loads == (100, 94)
        assert not self._cell(fewer, mean_bound=0.05, quantile_bound=None,
                              ok_loads_bound=5).within_bound
        assert self._cell(fewer[1:] + [fewer[0]], mean_bound=0.05,
                          quantile_bound=None,
                          ok_loads_bound=6).within_bound
        # Bound 0: the same number of loads must succeed in both arms.
        assert not self._cell(fewer, mean_bound=0.05,
                              quantile_bound=None).within_bound

    def test_a_failing_cell_fails_the_run_and_says_so(self):
        shifted = [(plt * 1.5, failed) for plt, failed in self.ORACLE]
        report = fastpath_ab.AbReport(contended=[self._cell(shifted)])
        assert not report.within_bound
        assert "EXCEEDS BOUND" in report.render()
        assert "FAIL" in report.render()


class TestRunAb:
    def test_one_seed_battery_meets_the_bound(self):
        report = fastpath_ab.run_ab(trials=1)
        # 4 figure-3 conditions + 4 remote conditions for each of
        # figures 5 and 6.
        assert len(report.conditions) == 12
        assert report.oracle_repeatable
        assert report.within_bound, report.render()

    def test_selftest_cli_passes(self, capsys):
        assert main(["fastpath-ab", "--selftest"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestBatteriesUnchangedByFastpath:
    """The chaos and resilience batteries are bit-identical with the
    fast path on and off: fault worlds run pure packet-level, and the
    injector disables the fast path the moment it arms."""

    def test_fault_trial_bit_identical(self, monkeypatch):
        from repro.experiments.fault_battery import fault_trial

        monkeypatch.setenv("REPRO_FASTPATH", "1")
        on = [fault_trial(scenario, "opportunistic", 42, n_resources=4)
              for scenario in ("baseline", "link-flap")]
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        off = [fault_trial(scenario, "opportunistic", 42, n_resources=4)
               for scenario in ("baseline", "link-flap")]
        assert on == off

    def test_resilience_trial_bit_identical(self, monkeypatch):
        from repro.experiments.resilience_battery import resilience_trial

        monkeypatch.setenv("REPRO_FASTPATH", "1")
        on = resilience_trial(True, "opportunistic", 4200, loads=2)
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        off = resilience_trial(True, "opportunistic", 4200, loads=2)
        assert on == off


class TestSerialMatchesWorkers:
    def test_figure3_battery_identical_with_fastpath_on(self, monkeypatch):
        from repro.experiments.harness import run
        from repro.experiments.local_setup import FIGURE3

        monkeypatch.setenv("REPRO_FASTPATH", "1")
        serial = run(FIGURE3, trials=3, n_resources=4, workers=1)
        pooled = run(FIGURE3, trials=3, n_resources=4, workers=4)
        assert serial == pooled
