"""The hybrid-fidelity fast path: eligibility, exactness, live demotion.

The contract under test (see :mod:`repro.simnet.fastpath`):

* with host jitter disabled, fast-path page loads are *exact* — they
  reproduce the packet-level oracle's PLTs on the figure conditions;
* ``REPRO_FASTPATH=0`` / ``Internet(fastpath=False)`` removes the fast
  path entirely and is bit-identical to pre-fast-path behavior (golden
  values pinned below);
* in-flight analytic transfers are demoted back to packet level *live*
  when a fault hook fires on a route link — and the payload still
  arrives, with every segment still in the counters;
* contention is judged at the transmitter: flows that share a link but
  never its transmitter stay analytic and exact, a burst that meets a
  busy transmitter queues FIFO behind it, and only a transfer that has
  waited past its own budget goes back to packet level — alone;
* arming a fault injector disables the fast path for the whole world;
* the link's transmitter clock (``busy_until``) is what the fast path
  reads and stamps; ``inflight`` and the watcher hook feed the
  utilization gauges and live revocation.
"""

import dataclasses
from collections import OrderedDict

import pytest

from repro.internet.build import Internet
from repro.ip.tcp import TcpListener, tcp_connect
from repro.obs.metrics import observe
from repro.obs.spans import Tracer
from repro.simnet import fastpath
from repro.simnet.fastpath import (PLT_ERROR_BOUND, expected_max_jitter,
                                   expected_round_jitter, fastpath_enabled)
from repro.simnet.faults import FaultSchedule, inject
from repro.simnet.link import LinkConfig
from repro.simnet.network import Network
from repro.simnet.node import Node
from repro.simnet.packet import Packet
from repro.topology.defaults import local_testbed, remote_testbed

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

    def test_short_last_segment_is_exact_past_the_bottleneck(self):
        """One burst whose final segment is short: it catches up with
        the full segment ahead of it on the hop after the bottleneck
        (the parent charged it its own size on every hop: -4.9e-5)."""
        def deliver(fast):
            topology, ases = remote_testbed()
            internet = Internet(topology, seed=3, fastpath=fast)
            server, _received = _far_server(internet, ases)
            conn = _connect(internet, ases, server, "c1")
            internet.run()
            began = internet.loop.now
            conn.send("odd", 11_500)
            internet.run()
            return server.delivered_at["odd"] - began

        assert deliver(True) == pytest.approx(deliver(False), rel=1e-12)

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

    @pytest.mark.parametrize("args,value", [
        (((0.3, 0.3), (0.3, 0.3), 161.687, 10, 25, 1), 1.232602275742238),
        (((0.3, 0.3), (0.3, 0.3), 0.82, 10, 17, 1), 1.1062693258935776),
        (((0.3,), (0.3,), 0.05, 2, 33, 2), 1.4646491455443085),
        (((), (0.2,), 1.0, 10, 30, 1), 0.09598247850345754),
        (((0.2, 0.1, 0.4), (), 0.4, 10, 30, 1), 1.1097002053363765),
        (((0.3,), (0.3,), 5.0, 128, 400, 2), 6.220962361960435),
    ])
    def test_round_model_stops_at_the_last_release_with_the_same_values(
            self, args, value, monkeypatch):
        """Recorded when each sample still replayed every ACK to the
        end: stopping once the last segment is released draws the same
        stream and reads the same slowest arrival."""
        # A fresh cache: the key rounds the RTT, so a world run earlier
        # in this process (161.68700000000001 ms) would answer for it.
        monkeypatch.setattr(fastpath, "_ROUND_JITTER_CACHE", OrderedDict())
        assert expected_round_jitter(*args) == value

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


def _listening_server(internet, isd_as):
    """One server host in ``isd_as``; its listener collects every
    message any connection delivers, and when."""
    server = internet.add_host("server", isd_as)
    received = []
    server.delivered_at = {}

    def handler(conn):
        while True:
            message = yield conn.recv()
            received.append(message)
            server.delivered_at[message] = internet.loop.now

    TcpListener(server, 80, handler)
    return server, received


def _far_server(internet, ases):
    return _listening_server(internet, ases.remote_server)


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
        """The name is the parent's; the contract is the new one: a
        second flow on the shared core links demotes nobody."""
        internet, ases = remote_world
        server, received = _far_server(internet, ases)
        conn_a = _connect(internet, ases, server, "c1")
        conn_b = _connect(internet, ases, server, "c2")
        fastpath = internet.fastpath
        tracer = Tracer(internet.loop)
        fastpath.tracer = tracer
        a = ("first", 480_000)
        b = ("second", 480_000)
        conn_a.send(a, 480_000)
        conn_b.send(b, 480_000)
        assert fastpath.stats.transfers == 2
        internet.run()
        assert sorted(received, key=str) == [a, b]
        # The second flow's bursts queued behind the first's, within
        # budget; the first never noticed.
        assert fastpath.stats.demotions == 0
        assert fastpath.stats.fallbacks == {}
        assert fastpath.stats.burst_waits > 0
        metrics = observe(internet, spans=tracer.spans)
        assert metrics.counter("fastpath_burst_waits").value \
            == fastpath.stats.burst_waits
        assert metrics.counter("fastpath_wait_ms").value \
            == pytest.approx(fastpath.stats.wait_ms)
        assert not tracer.spans_named("fastpath.demote")

    def test_demoted_transfer_keeps_its_segments_in_the_counters(
            self, remote_world):
        """Conservation: the segments a demoted transfer keeps are
        counted like the ones it resends (the parent dropped the 30
        kept ones: 3,710 packets / 2,413,120 B / 370 segments)."""
        internet, ases = remote_world
        server, received = _far_server(internet, ases)
        conn = _connect(internet, ases, server, "c1")
        payload = ("blob", 480_000)
        conn.send(payload, 480_000)
        link = internet.links_for("c1")[0]
        internet.loop.call_at(internet.loop.now + 400.0,
                              lambda: setattr(link, "extra_latency_ms", 40.0))
        internet.run()
        assert received == [payload]
        assert internet.fastpath.stats.fallbacks == {"fault": 1}
        # What the packet-level oracle and the undemoted run both read.
        stats = internet.network.stats()
        assert (stats["packets_sent"], stats["bytes_sent"]) \
            == (4_010, 2_608_720)
        assert conn.channel.stats.segments_sent == 400
        assert conn.channel.stats.messages_sent == 1

    def test_demote_span_and_counters(self, remote_world):
        internet, ases = remote_world
        tracer = Tracer(internet.loop)
        internet.fastpath.tracer = tracer
        server, received = _far_server(internet, ases)
        conn = _connect(internet, ases, server, "c1")
        payload = ("blob", 480_000)
        conn.send(payload, 480_000)
        link = internet.links_for("c1")[0]
        internet.loop.call_at(internet.loop.now + 50.0,
                              lambda: setattr(link, "extra_loss_rate", 0.2))
        internet.run()
        assert received == [payload]
        metrics = observe(internet, spans=tracer.spans)
        assert metrics.counter("fastpath_transfers").value == 1
        assert metrics.counters_named("fastpath_fallbacks")
        spans = tracer.spans_named("fastpath.demote")
        assert len(spans) == 1
        assert spans[0].attributes["reason"] == "fault"


def _two_flows(fast, size, gap_ms=0.0, chained=False):
    """Two client hosts send ``size`` bytes each to one far server over
    the jitter-free remote testbed, ``gap_ms`` apart (the second first
    when chained, so the first channel is the one that waits). Returns
    delivery times relative to the first send, and the world."""
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=3, fastpath=fast)
    server, _received = _far_server(internet, ases)
    conn_a = _connect(internet, ases, server, "c1")
    conn_b = _connect(internet, ases, server, "c2")
    internet.run()  # drain the handshakes' ACKs
    began = internet.loop.now
    if chained:
        conn_b.send("b", size)
        conn_a.send("a", size)
        conn_a.send("chained", size)
    else:
        conn_a.send("a", size)
        if gap_ms:
            internet.loop.call_later(gap_ms, conn_b.send, "b", size)
        else:
            conn_b.send("b", size)
    internet.run()
    return ({message: at - began
             for message, at in server.delivered_at.items()}, internet)


def _solo(size):
    """One flow alone: its closed-form delivery time."""
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=3)
    server, _received = _far_server(internet, ases)
    conn = _connect(internet, ases, server, "c1")
    internet.run()
    began = internet.loop.now
    conn.send("a", size)
    internet.run()
    assert internet.fastpath.stats.transfers == 1
    return server.delivered_at["a"] - began


class TestContentionAtTheTransmitter:
    """The rule, case by case, on the jitter-free remote testbed."""

    @pytest.mark.parametrize("sender", ["br-core", "br-client"])
    def test_packet_in_propagation_does_not_block_a_commit(
            self, remote_world, sender):
        internet, ases = remote_world
        server, received = _far_server(internet, ases)
        conn = _connect(internet, ases, server, "c1")
        internet.run()
        # The client AS's uplink, shared by everything c1 sends.
        uplink = next(link for link in internet.network.links
                      if str(ases.client) in link.name
                      and str(ases.local_core) in link.name)
        a_side, b_side = uplink._endpoints
        from_name = a_side if sender == "br-core" else b_side
        uplink.transmit(Packet(src="x", dst="y", payload=None, size=1_000),
                        from_name)
        # Serialized (8 µs at 1 Gbps), still 2.5 ms from the far end.
        internet.loop.run(until=internet.loop.now + 1.0)
        assert uplink.inflight == 1
        assert uplink.busy_until(from_name) < internet.loop.now
        conn.send(("blob", 60_000), 60_000)
        assert internet.fastpath.stats.transfers == 1
        assert internet.fastpath.stats.fallbacks == {}

    def test_flows_that_never_meet_at_a_transmitter_are_both_solo(self):
        # 12 kB is one 10-segment burst: 0.25 ms on the 400 Mbps hop.
        times, internet = _two_flows(True, 12_000, gap_ms=5.0)
        stats = internet.fastpath.stats
        assert (stats.transfers, stats.fallbacks) == (2, {})
        assert (stats.burst_waits, stats.wait_ms) == (0, 0.0)
        solo = _solo(12_000)
        assert times["a"] == pytest.approx(solo, rel=1e-12)
        assert times["b"] - 5.0 == pytest.approx(solo, rel=1e-12)

    @pytest.mark.parametrize("size", [12_000, 120_000, 480_000])
    def test_same_instant_pairs_match_the_oracle(self, size):
        """The parent demoted the first flow with nothing sent and made
        its resend wait a full RTT: +199 % / +28.5 % / +18.1 %."""
        oracle, _world = _two_flows(False, size)
        fast, internet = _two_flows(True, size)
        stats = internet.fastpath.stats
        assert (stats.transfers, stats.fallbacks) == (2, {})
        assert stats.burst_waits > 0
        for message in ("a", "b"):
            assert fast[message] == pytest.approx(oracle[message],
                                                  rel=1e-3)

    def test_chained_message_slides_with_the_one_that_waited(self):
        alone, _world = _two_flows(True, 12_000, gap_ms=1_000.0,
                                   chained=False)
        solo = _solo(12_000)
        times, internet = _two_flows(True, 12_000, chained=True)
        stats = internet.fastpath.stats
        assert (stats.transfers, stats.fallbacks) == (3, {})
        waited = times["a"] - solo
        assert waited == pytest.approx(stats.wait_ms, rel=1e-9)
        assert waited > 0.2  # a 10-segment burst ahead on 400 Mbps
        assert times["b"] == pytest.approx(alone["a"], rel=1e-12)
        # A chained message starts where the one ahead of it delivers.
        assert times["chained"] - times["a"] == pytest.approx(solo,
                                                              rel=1e-9)

    def test_backlog_over_budget_demotes_only_the_flow_that_waited(self):
        """A 10-segment burst holds a 1.5 Mbps hop for 72 ms; the flow
        that arrives behind it may absorb 1 % of its own ~0.7 s."""
        from repro.experiments.overload import overload_testbed

        topology, client_as, origin_as = overload_testbed(1.5, 1.5)
        internet = Internet(topology, seed=3)
        server, received = _listening_server(internet, origin_as)
        conns = []
        for name in ("c1", "c2"):
            client = internet.add_host(name, client_as)
            conns.append(internet.loop.run_process(
                tcp_connect(client, server.addr, 80, via="ip")))
        internet.run()
        tracer = Tracer(internet.loop)
        internet.fastpath.tracer = tracer
        began = internet.loop.now
        first, second = ("first", 12_000), ("second", 60_000)
        conns[0].send(first, 12_000)
        promised = conns[0].channel._fp_active[0].deliver_ms
        conns[1].send(second, 60_000)
        stats = internet.fastpath.stats
        assert stats.transfers == 2
        internet.run()
        assert sorted(received) == [first, second]  # each exactly once
        assert stats.fallbacks == {"queue": 1}
        assert stats.demotions == 1
        # Nobody touched the first flow: it delivered when it said.
        assert server.delivered_at[first] == promised
        assert server.delivered_at[second] > promised
        assert conns[0].channel.stats.retransmissions == 0
        assert [span.attributes["reason"]
                for span in tracer.spans_named("fastpath.demote")] \
            == ["queue"]
        assert observe(internet).counter("fastpath_fallbacks",
                                         reason="queue").value == 1
        # Conservation: both messages, every segment, counted once.
        assert [conn.channel.stats.segments_sent
                - conn.channel.stats.retransmissions
                for conn in conns] == [10, 50]
        assert began < promised


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
        """``busy_until`` is the per-direction transmitter clock the
        fast path judges contention by; ``inflight`` (packets on the
        wire, propagation included) only feeds the gauges."""
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
        registry.counter("fastpath_transfers").inc(7)
        registry.counter("fastpath_fallbacks", reason="contention").inc(2)
        stats = PathUsageStats()
        stats.record_ip("example.org", 12.0, scion_was_available=False)
        report = stats.report(registry)
        assert "hybrid-fidelity fast path: 7 analytic transfers" in report
        assert "fallback[contention]: 2" in report

    def test_stats_report_says_how_much_queued_and_why_it_demoted(self):
        from repro.core.skip.stats import PathUsageStats
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("fastpath_transfers").inc(7)
        registry.counter("fastpath_fallbacks", reason="queue").inc(1)
        registry.counter("fastpath_burst_waits").inc(3)
        registry.counter("fastpath_wait_ms").inc(0.4375)
        stats = PathUsageStats()
        stats.record_ip("example.org", 12.0, scion_was_available=False)
        report = stats.report(registry)
        assert ("bursts that queued at a transmitter: 3 "
                "(0.438 ms modelled wait)") in report
        assert "fallback[queue]: 1" in report

    def test_contention_gauges_export(self):
        from repro.obs.metrics import MetricsRegistry, sample_links

        network = Network(seed=7)
        a, b = _Sink("br"), _Sink("h")
        network.add_node(a)
        network.add_node(b)
        link = network.connect(a, b, config=LinkConfig(bandwidth_mbps=8.0),
                               name="1-ff00:0:110<->h")
        link.transmit(Packet(src="br", dst="h", payload=None, size=1000),
                      "br")
        registry = MetricsRegistry()
        sample_links(registry, network)
        inflight = registry.gauges_named("link_inflight")
        assert list(inflight.values()) == [1.0]
        busy = registry.gauges_named("link_busy_ms")
        assert list(busy.values()) == [pytest.approx(1.0)]
        per_as = registry.gauges_named("as_link_inflight")
        assert list(per_as.values()) == [1.0]
