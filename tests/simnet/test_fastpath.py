"""The hybrid-fidelity fast path: eligibility, exactness, live demotion.

The contract under test (see :mod:`repro.simnet.fastpath`):

* with host jitter disabled, fast-path page loads are *exact* — they
  reproduce the packet-level oracle's PLTs on the figure conditions;
* ``REPRO_FASTPATH=0`` / ``Internet(fastpath=False)`` removes the fast
  path entirely and is bit-identical to pre-fast-path behavior (golden
  values pinned below);
* in-flight analytic transfers are demoted back to packet level *live*
  when a fault hook fires on a route link or a second flow contends for
  a shared finite-bandwidth link — and the payload still arrives;
* arming a fault injector disables the fast path for the whole world;
* link contention bookkeeping (``inflight`` / ``busy_until``) and the
  watcher hook feed eligibility and the utilization gauges.
"""

import dataclasses
from collections import OrderedDict

import pytest

from repro.internet.build import Internet
from repro.ip.tcp import TcpListener, tcp_connect
from repro.obs.spans import Tracer
from repro.simnet import fastpath
from repro.simnet.fastpath import (PLT_ERROR_BOUND, expected_max_jitter,
                                   expected_round_jitter, fastpath_enabled)
from repro.simnet.faults import FaultSchedule, inject
from repro.simnet.link import LinkConfig
from repro.simnet.network import Network
from repro.simnet.node import Node
from repro.simnet.packet import Packet
from repro.topology.defaults import local_testbed

#: Packet-level oracle PLTs recorded before the fast path existed.
#: ``REPRO_FASTPATH=0`` must keep reproducing these bit-for-bit.
GOLDEN_FIGURE3 = {
    "SCION-only": (88.92401229519798, 108.19127664837964),
    "mixed SCION-IP": (89.10691047618614, 108.33902801810098),
    "strict-SCION": (39.56328952885672, 45.659873223248084),
    "BGP/IP-only": (6.432382650591392, 6.257530770144672),
}
GOLDEN_FIG5_SCION_500 = 708.0872870741133
GOLDEN_FIG6_MULTI_SCION_600 = 279.883006796397


class TestKnob:
    def test_explicit_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        assert fastpath_enabled(True) is True
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        assert fastpath_enabled(False) is False

    @pytest.mark.parametrize("value,expected", [
        ("0", False), ("false", False), ("no", False), ("FALSE", False),
        ("1", True), ("yes", True), ("anything", True),
    ])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_FASTPATH", value)
        assert fastpath_enabled() is expected

    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        assert fastpath_enabled() is True

    def test_internet_wiring(self, monkeypatch):
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        assert Internet(local_testbed(), seed=1).fastpath is not None
        assert Internet(local_testbed(), seed=1,
                        fastpath=False).fastpath is None
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        assert Internet(local_testbed(), seed=1).fastpath is None


class TestPacketLevelUnchanged:
    """REPRO_FASTPATH=0 is bit-identical to the pre-fast-path repo."""

    def test_figure3_golden(self, monkeypatch):
        from repro.experiments.local_setup import figure3_trial

        monkeypatch.setenv("REPRO_FASTPATH", "0")
        for condition, golden in GOLDEN_FIGURE3.items():
            got = tuple(figure3_trial(condition, seed)
                        for seed in (100, 101))
            assert got == golden, condition

    def test_remote_golden(self, monkeypatch):
        from repro.experiments.remote_setup import (FAR_ORIGIN, NEAR_ORIGIN,
                                                    remote_trial)

        monkeypatch.setenv("REPRO_FASTPATH", "0")
        assert remote_trial(FAR_ORIGIN, "single origin / SCION",
                            500) == GOLDEN_FIG5_SCION_500
        assert remote_trial(NEAR_ORIGIN, "multiple origins / SCION",
                            600) == GOLDEN_FIG6_MULTI_SCION_600


class TestJitterFreeExactness:
    """With jitter zeroed, the analytic schedule matches the oracle to
    floating-point round-off (the sums are ordered differently)."""

    def test_figure3_paired_exact(self, monkeypatch):
        from repro.experiments import local_setup

        calibration = dataclasses.replace(local_setup.DEFAULT_CALIBRATION,
                                          host_jitter_ms=0.0)

        def battery():
            return {condition: local_setup.figure3_trial(
                        condition, 100, calibration=calibration)
                    for condition in local_setup.FIGURE3_CONDITIONS}

        monkeypatch.setenv("REPRO_FASTPATH", "0")
        oracle = battery()
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        fast = battery()
        for condition, expected in oracle.items():
            assert fast[condition] == pytest.approx(expected, rel=1e-12), \
                condition

    def test_remote_paired_within_bound(self, monkeypatch):
        from repro.experiments import remote_setup

        calibration = dataclasses.replace(
            remote_setup.DEFAULT_REMOTE_CALIBRATION, host_jitter_ms=0.0)

        def trial():
            return remote_setup.remote_trial(
                remote_setup.FAR_ORIGIN, "single origin / SCION", 500,
                calibration=calibration)

        monkeypatch.setenv("REPRO_FASTPATH", "0")
        oracle = trial()
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        fast = trial()
        assert abs(fast - oracle) / oracle <= PLT_ERROR_BOUND


class TestJitterModelCaches:
    """The two jitter models are pure functions behind bounded caches."""

    ROUND_ARGS = ((0.3, 0.3), (0.3,), 12.345, 10, 40, 2)

    def test_values_recorded_before_the_caches_were_bounded(self):
        assert expected_round_jitter(*self.ROUND_ARGS) == 1.4830313793622345
        assert expected_round_jitter((0.25,), (0.25, 0.1), 3.2, 4, 25, 3) \
            == -2.231246157414989
        assert expected_max_jitter((0.3, 0.5), 4) == 0.5751245714308764
        assert expected_max_jitter((0.3, 0.5), 1) == 0.4
        assert expected_max_jitter((), 4) == 0.0
        assert expected_max_jitter((0.3,), 0) == 0.0

    def test_caches_evict_least_recently_used_without_changing_values(
            self, monkeypatch):
        monkeypatch.setattr(fastpath, "MAX_CACHED_JITTER_VALUES", 2)
        for name, model, calls in (
                ("_ROUND_JITTER_CACHE", expected_round_jitter,
                 [((0.3,), (0.3,), rtt, 4, 12, 2) for rtt in (5.0, 6.0, 7.0)]),
                ("_MAX_JITTER_CACHE", expected_max_jitter,
                 [((0.3, 0.5), window) for window in (2, 3, 4)])):
            cache = OrderedDict()
            monkeypatch.setattr(fastpath, name, cache)
            first, second, third = calls
            value = model(*first)
            model(*second)
            assert model(*first) == value  # a hit: ``first`` is now newest
            model(*third)                  # evicts ``second``
            assert len(cache) == 2
            hot, _newest = cache
            assert cache[hot] == value
            model(*second)                 # evicts ``first``
            assert value not in cache.values()
            assert model(*first) == value  # recomputed, same value
            assert len(cache) == 2


def _far_server(internet, ases):
    """One server host in the remote AS; its listener collects every
    message any connection delivers."""
    server = internet.add_host("server", ases.remote_server)
    received = []

    def handler(conn):
        while True:
            message = yield conn.recv()
            received.append(message)

    TcpListener(server, 80, handler)
    return server, received


def _connect(internet, ases, server, name):
    client = internet.add_host(name, ases.client)
    return internet.loop.run_process(
        tcp_connect(client, server.addr, 80, via="ip"))


class TestLiveDemotion:
    def test_fault_mid_transfer_still_delivers(self, remote_world):
        internet, ases = remote_world
        server, received = _far_server(internet, ases)
        conn = _connect(internet, ases, server, "c1")
        fastpath = internet.fastpath
        assert fastpath is not None
        payload = ("blob", 480_000)
        conn.send(payload, 480_000)
        assert fastpath.stats.transfers == 1
        # Fire a latency spike on the client's access link while the
        # analytic transfer is mid-flight.
        link = internet.links_for("c1")[0]
        internet.loop.call_at(internet.loop.now + 50.0,
                              lambda: setattr(link, "extra_latency_ms", 40.0))
        internet.run()
        assert received == [payload]
        assert fastpath.stats.demotions == 1
        assert fastpath.stats.fallbacks.get("fault") == 1

    def test_link_down_mid_transfer(self, remote_world):
        internet, ases = remote_world
        server, received = _far_server(internet, ases)
        conn = _connect(internet, ases, server, "c1")
        fastpath = internet.fastpath
        payload = ("blob", 240_000)
        conn.send(payload, 240_000)
        link = internet.links_for("c1")[0]
        internet.loop.call_at(internet.loop.now + 30.0,
                              lambda: setattr(link, "up", False))
        internet.loop.call_at(internet.loop.now + 400.0,
                              lambda: setattr(link, "up", True))
        internet.run()
        assert received == [payload]
        assert fastpath.stats.fallbacks.get("link-down") == 1

    def test_contention_demotes_and_both_arrive(self, remote_world):
        internet, ases = remote_world
        server, received = _far_server(internet, ases)
        conn_a = _connect(internet, ases, server, "c1")
        conn_b = _connect(internet, ases, server, "c2")
        fastpath = internet.fastpath
        a = ("first", 480_000)
        b = ("second", 480_000)
        conn_a.send(a, 480_000)
        assert fastpath.stats.transfers == 1
        # The second flow shares the core links: committing it demotes
        # the analytic transfer and goes packet-level itself.
        conn_b.send(b, 480_000)
        assert fastpath.stats.demotions == 1
        assert fastpath.stats.fallbacks.get("contention", 0) >= 1
        internet.run()
        assert sorted(received, key=str) == [a, b]

    def test_demote_span_and_counters(self, remote_world):
        internet, ases = remote_world
        tracer = Tracer(internet.loop)
        internet.fastpath.attach_tracer(tracer)
        server, received = _far_server(internet, ases)
        conn = _connect(internet, ases, server, "c1")
        payload = ("blob", 480_000)
        conn.send(payload, 480_000)
        link = internet.links_for("c1")[0]
        internet.loop.call_at(internet.loop.now + 50.0,
                              lambda: setattr(link, "extra_loss_rate", 0.2))
        internet.run()
        assert received == [payload]
        metrics = tracer.metrics
        assert metrics.counter("fastpath_transfers_total").value == 1
        assert metrics.counters_named("fastpath_fallbacks_total")
        spans = tracer.spans_named("fastpath.demote")
        assert len(spans) == 1
        assert spans[0].attributes["reason"] == "fault"


class TestFaultInjectorDisables:
    def test_arm_disables_for_the_world(self, remote_world):
        internet, ases = remote_world
        schedule = FaultSchedule()
        schedule.loss_burst("*", at_ms=1_000.0, duration_ms=100.0,
                            loss_rate=0.5)
        inject(internet, schedule)
        assert internet.fastpath.enabled is False
        server, received = _far_server(internet, ases)
        conn = _connect(internet, ases, server, "c1")
        payload = ("blob", 60_000)
        conn.send(payload, 60_000)
        assert internet.fastpath.stats.transfers == 0
        assert internet.fastpath.stats.fallbacks.get("disabled") == 1
        internet.run()
        assert received == [payload]


class _Sink(Node):
    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def receive(self, packet, ifid):
        self.got.append(packet)


class TestLinkBookkeeping:
    def _wire(self, bandwidth=8.0):
        network = Network(seed=7)
        a, b = _Sink("a"), _Sink("b")
        network.add_node(a)
        network.add_node(b)
        link = network.connect(a, b, config=LinkConfig(
            latency_ms=5.0, bandwidth_mbps=bandwidth))
        return network, a, b, link

    def test_inflight_and_busy_until(self):
        network, _a, b, link = self._wire()
        # 1000 bytes at 8 Mbps = 1 ms serialization.
        link.transmit(Packet(src="a", dst="b", payload=None, size=1000), "a")
        assert link.inflight == 1
        assert link.busy_until("a") == pytest.approx(1.0)
        assert link.busy_until("b") == 0.0
        link.transmit(Packet(src="a", dst="b", payload=None, size=1000), "a")
        assert link.busy_until("a") == pytest.approx(2.0)  # FIFO queueing
        network.run()
        assert link.inflight == 0
        assert len(b.got) == 2

    def test_watcher_fires_on_transitions_only(self):
        _network, _a, _b, link = self._wire()
        seen = []
        link.watcher = seen.append
        link.extra_latency_ms = 10.0
        link.extra_latency_ms = 10.0  # no transition, no callback
        link.up = False
        link.up = False
        link.extra_loss_rate = 0.1
        link.extra_jitter_ms = 2.0
        assert seen == [link] * 4


class TestObsSurfacing:
    def test_fastpath_section_in_stats_report(self):
        from repro.core.skip.stats import PathUsageStats
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("fastpath_transfers_total").inc(7)
        registry.counter("fastpath_fallbacks_total",
                         reason="contention").inc(2)
        stats = PathUsageStats(metrics=registry)
        stats.record_ip("example.org", 12.0, scion_was_available=False)
        report = stats.report()
        assert "hybrid-fidelity fast path: 7 analytic transfers" in report
        assert "fallback[contention]: 2" in report

    def test_contention_gauges_export(self):
        from repro.obs.metrics import MetricsRegistry, export_link_contention

        network = Network(seed=7)
        a, b = _Sink("br"), _Sink("h")
        network.add_node(a)
        network.add_node(b)
        link = network.connect(a, b, config=LinkConfig(bandwidth_mbps=8.0),
                               name="1-ff00:0:110<->h")
        link.transmit(Packet(src="br", dst="h", payload=None, size=1000),
                      "br")
        registry = MetricsRegistry()
        export_link_contention(registry, network)
        inflight = registry.gauges_named("link_inflight")
        assert list(inflight.values()) == [1.0]
        busy = registry.gauges_named("link_busy_ms")
        assert list(busy.values()) == [pytest.approx(1.0)]
        per_as = registry.gauges_named("as_link_inflight")
        assert list(per_as.values()) == [1.0]
