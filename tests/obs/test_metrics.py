"""Counters, gauges, fixed-bucket histograms, and the registry."""

import math

import pytest

from repro.obs.metrics import (DEFAULT_LATENCY_BUCKETS_MS, Histogram,
                               MetricsRegistry, link_ases, render_key)


class TestInstruments:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", transport="scion")
        counter.inc()
        counter.inc(2.0)
        assert counter.value == 3.0
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_goes_anywhere(self):
        gauge = MetricsRegistry().gauge("ratio")
        gauge.set(0.75)
        gauge.inc(-0.5)
        assert gauge.value == 0.25

    def test_histogram_buckets_and_mean(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.bounds == (1.0, 10.0, math.inf)
        assert histogram.bucket_counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(55.5 / 3)

    def test_histogram_quantile_is_bucket_resolution(self):
        histogram = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(1.0) == 100.0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(10.0, 1.0))

    def test_default_buckets_end_in_inf(self):
        assert DEFAULT_LATENCY_BUCKETS_MS[-1] == math.inf


class TestRegistry:
    def test_instruments_interned_per_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_total", transport="scion")
        b = registry.counter("requests_total", transport="scion")
        c = registry.counter("requests_total", transport="ip")
        assert a is b
        assert a is not c

    def test_render_key(self):
        assert render_key("n", ()) == "n"
        assert render_key("n", (("a", "1"), ("b", "x"))) == "n{a=1,b=x}"

    def test_snapshot_is_sorted_and_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a", k="v").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a{k=v}", "b"]
        assert snapshot["histograms"]["h"]["bounds"] == [1.0, "inf"]
        json.dumps(snapshot)  # must not raise (inf encoded as a string)


class TestLinkUtilization:
    def test_gauges_named_selects_one_family(self):
        registry = MetricsRegistry()
        registry.gauge("as_link_bytes", isd_as="1-ff00:0:110").set(100.0)
        registry.gauge("as_link_bytes", isd_as="1-ff00:0:120").set(50.0)
        registry.gauge("other").set(7.0)
        family = registry.gauges_named("as_link_bytes")
        assert family == {
            (("isd_as", "1-ff00:0:110"),): 100.0,
            (("isd_as", "1-ff00:0:120"),): 50.0,
        }
        assert MetricsRegistry().gauges_named("as_link_bytes") == {}

    def test_export_attributes_bytes_to_both_as_endpoints(self):
        per_as: dict[str, float] = {}
        for name, sent in {
                "1-ff00:0:110#1<->1-ff00:0:111#2": 1_000.0,
                "1-ff00:0:110<->client": 300.0,  # host access link
        }.items():
            for isd_as in link_ases(name):
                per_as[isd_as] = per_as.get(isd_as, 0.0) + sent
        # The inter-AS link counts for both sides; the access link only
        # for its AS (the plain host name is not an ISD-AS).
        assert per_as == {"1-ff00:0:110": 1_300.0, "1-ff00:0:111": 1_000.0}

    def test_export_from_a_traced_fault_world(self):
        from repro.experiments.fault_battery import CHAOS
        from repro.experiments.harness import observe_world

        world, result = CHAOS.traced("baseline", "opportunistic", seed=500,
                                     n_resources=2)
        assert result.ok_count == 3
        per_as = observe_world(world).gauges_named("as_link_bytes")
        assert per_as, "traced load exported no utilization gauges"
        # Links are sampled, not replayed from the packet ring, so an
        # AS whose links stayed idle is listed too, at 0.
        assert any(value > 0.0 for value in per_as.values())
