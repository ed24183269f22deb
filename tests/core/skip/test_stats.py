"""Path usage statistics (the user-facing feedback panel)."""

import pytest

from repro.core.skip.stats import PathUsageStats
from repro.experiments.harness import observe_world
from repro.experiments.local_setup import (build_local_world, load_once,
                                           make_page)
from repro.obs.metrics import MetricsRegistry


class TestAccounting:
    def test_scion_request_recorded(self):
        stats = PathUsageStats()
        stats.record_scion("a.example", "fp1", "[1 > 2]", 40.0,
                           compliant=True)
        stats.record_scion("a.example", "fp1", "[1 > 2]", 60.0,
                           compliant=True)
        record = stats.hosts["a.example"].paths["fp1"]
        assert record.uses == 2
        assert record.mean_latency_ms == 50.0

    def test_non_compliant_counted(self):
        stats = PathUsageStats()
        stats.record_scion("a.example", "fp1", "[1 > 2]", 10.0,
                           compliant=False)
        assert stats.hosts["a.example"].non_compliant == 1

    def test_ip_fallback_counted(self):
        stats = PathUsageStats()
        stats.record_ip("a.example", 5.0, scion_was_available=True)
        stats.record_ip("a.example", 5.0, scion_was_available=False)
        host = stats.hosts["a.example"]
        assert host.ip_requests == 2
        assert host.fallbacks == 1

    def test_blocked_counted(self):
        stats = PathUsageStats()
        stats.record_blocked("a.example")
        assert stats.hosts["a.example"].blocked_requests == 1

    def test_totals(self):
        stats = PathUsageStats()
        stats.record_scion("a", "fp", "s", 1.0, compliant=True)
        stats.record_ip("b", 1.0, scion_was_available=False)
        stats.record_blocked("c")
        assert stats.total_requests() == 3

    def test_scion_share_excludes_blocked(self):
        stats = PathUsageStats()
        stats.record_scion("a", "fp", "s", 1.0, compliant=True)
        stats.record_ip("a", 1.0, scion_was_available=False)
        stats.record_blocked("a")
        assert stats.scion_share() == 0.5

    def test_scion_share_empty(self):
        assert PathUsageStats().scion_share() == 0.0

    def test_report_renders(self):
        stats = PathUsageStats()
        stats.record_scion("a.example", "fp", "[1 > 2]", 12.0,
                           compliant=True)
        report = stats.report()
        assert "a.example" in report
        assert "[1 > 2]" in report
        assert "12.0 ms" in report

    def test_empty_report(self):
        assert "no traffic" in PathUsageStats().report()

    def test_paths_tracked_per_fingerprint(self):
        stats = PathUsageStats()
        stats.record_scion("a", "fp1", "s1", 1.0, compliant=True)
        stats.record_scion("a", "fp2", "s2", 2.0, compliant=True)
        assert len(stats.hosts["a"].paths) == 2


class TestLatencyHistograms:
    def test_per_transport_histograms_populated(self):
        stats = PathUsageStats()
        stats.record_scion("a", "fp", "s", 10.0, compliant=True)
        stats.record_scion("a", "fp", "s", 30.0, compliant=True)
        stats.record_ip("a", 100.0, scion_was_available=False)
        host = stats.hosts["a"]
        assert host.scion_latency.count == 2
        assert host.scion_latency.mean == pytest.approx(20.0)
        assert host.ip_latency.count == 1
        assert host.ip_latency.mean == pytest.approx(100.0)

    def test_metrics_mirror_records_request_ms(self):
        # No mirror any more: the per-host histograms are the store, and
        # ``observe`` sums them over hosts into ``proxy_*_latency``.
        world = build_local_world(make_page("mixed SCION-IP", 4, 0), seed=3)
        load_once(world)
        registry = observe_world(world)
        hosts = world.browser.proxy.stats.hosts.values()
        for transport in ("scion", "ip"):
            summed = registry.histogram(f"proxy_{transport}_latency")
            per_host = [getattr(host, f"{transport}_latency")
                        for host in hosts]
            assert summed.count == sum(h.count for h in per_host) > 0
            assert summed.total == pytest.approx(
                sum(h.total for h in per_host))

    def test_default_stats_need_no_registry(self):
        # The counter API stays backward compatible: no registry wired,
        # nothing observed anywhere but the local histograms.
        stats = PathUsageStats()
        stats.record_ip("a", 5.0, scion_was_available=False)
        assert stats.hosts["a"].ip_requests == 1

    def test_report_includes_latency_lines(self):
        stats = PathUsageStats()
        stats.record_scion("a.example", "fp", "[1 > 2]", 12.0,
                           compliant=True)
        stats.record_ip("a.example", 48.0, scion_was_available=False)
        report = stats.report()
        assert "scion" in report.lower()
        assert "p95" in report


class TestUtilizationSection:
    def test_report_renders_per_as_utilization_when_present(self):
        registry = MetricsRegistry()
        stats = PathUsageStats()
        stats.record_scion("a.example", "fp", "[1 > 2]", 12.0,
                           compliant=True)
        assert "utilization" not in stats.report(registry)
        registry.gauge("as_link_bytes", isd_as="1-ff00:0:110").set(4_096.0)
        report = stats.report(registry)
        assert "per-AS link utilization" in report
        assert "1-ff00:0:110: 4,096 B" in report
