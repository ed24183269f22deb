"""Node wiring, network container, and tracing."""

import pytest

from repro.errors import SimulationError
from repro.simnet.network import Network
from repro.simnet.node import Node
from repro.simnet.packet import Packet
from repro.simnet.trace import PacketTrace


class TestNodeWiring:
    def test_duplicate_node_name_rejected(self):
        net = Network()
        net.add_node(Node("x"))
        with pytest.raises(SimulationError):
            net.add_node(Node("x"))

    def test_unknown_node_lookup(self):
        with pytest.raises(SimulationError):
            Network().node("ghost")

    def test_self_link_rejected(self):
        net = Network()
        net.add_node(Node("x"))
        with pytest.raises(SimulationError):
            net.connect("x", "x")

    def test_ifids_auto_assigned(self):
        net = Network()
        a, b, c = Node("a"), Node("b"), Node("c")
        net.add_nodes([a, b, c])
        net.connect("a", "b")
        net.connect("a", "c")
        assert sorted(a.ports) == [1, 2]

    def test_explicit_ifids(self):
        net = Network()
        net.add_nodes([Node("a"), Node("b")])
        net.connect("a", "b", a_ifid=7, b_ifid=9)
        assert 7 in net.node("a").ports
        assert 9 in net.node("b").ports

    def test_duplicate_port_rejected(self):
        net = Network()
        net.add_nodes([Node("a"), Node("b"), Node("c")])
        net.connect("a", "b", a_ifid=1)
        with pytest.raises(SimulationError):
            net.connect("a", "c", a_ifid=1)

    def test_config_and_kwargs_mutually_exclusive(self):
        from repro.simnet.link import LinkConfig
        net = Network()
        net.add_nodes([Node("a"), Node("b")])
        with pytest.raises(SimulationError):
            net.connect("a", "b", config=LinkConfig(), latency_ms=5.0)

    def test_send_on_missing_port(self):
        net = Network()
        node = net.add_node(Node("lonely"))
        with pytest.raises(SimulationError):
            node.send(Packet(src="lonely", dst="x", payload=None, size=1), 1)

    def test_send_without_network(self):
        node = Node("detached")
        with pytest.raises(SimulationError):
            node.send(Packet(src="d", dst="x", payload=None, size=1), 1)

    def test_next_free_ifid_skips_used(self):
        net = Network()
        net.add_nodes([Node("a"), Node("b")])
        net.connect("a", "b", a_ifid=1)
        assert net.node("a").next_free_ifid() == 2


class TestNetworkStats:
    def test_stats_aggregate(self):
        net = Network()
        a, b = Node("a"), Node("b")
        net.add_nodes([a, b])
        net.connect("a", "b", latency_ms=1.0)
        a.send(Packet(src="a", dst="b", payload=None, size=100), 1)
        net.run()
        stats = net.stats()
        assert stats["nodes"] == 2
        assert stats["links"] == 1
        assert stats["packets_sent"] == 1
        assert stats["bytes_sent"] == 100


class TestTrace:
    def build_traced(self):
        net = Network(trace=True)
        a, b = Node("a"), Node("b")
        net.add_nodes([a, b])
        net.connect("a", "b", latency_ms=1.0, name="wire")
        return net, a

    def test_send_and_recv_recorded(self):
        net, a = self.build_traced()
        a.send(Packet(src="a", dst="b", payload=None, size=64), 1)
        net.run()
        events = [entry.event for entry in net.trace]
        assert events == ["send", "recv"]
        assert net.trace.packets_on_link("wire") == 1

    def test_drop_recorded(self):
        net = Network(trace=True)
        a, b = Node("a"), Node("b")
        net.add_nodes([a, b])
        net.connect("a", "b", latency_ms=1.0, mtu=10, name="wire")
        a.send(Packet(src="a", dst="b", payload=None, size=100), 1)
        net.run()
        assert len(net.trace.drops()) == 1
        assert net.trace.drops()[0].event == "drop-mtu"

    def test_capacity_cap(self):
        trace = PacketTrace(capacity=1)
        packet = Packet(src="a", dst="b", payload=None, size=1)
        trace.record(0.0, "wire", "send", packet)
        trace.record(1.0, "wire", "recv", packet)
        assert len(trace) == 1

    def test_capacity_ring_keeps_newest_and_counts_drops(self):
        trace = PacketTrace(capacity=3)
        packet = Packet(src="a", dst="b", payload=None, size=1)
        for tick in range(5):
            trace.record(float(tick), "wire", "send", packet)
        assert len(trace) == 3
        assert [entry.time for entry in trace] == [2.0, 3.0, 4.0]
        assert trace.dropped_entries == 2

    def test_unbounded_trace_never_drops(self):
        trace = PacketTrace()
        packet = Packet(src="a", dst="b", payload=None, size=1)
        for tick in range(100):
            trace.record(float(tick), "wire", "send", packet)
        assert len(trace) == 100
        assert trace.dropped_entries == 0
