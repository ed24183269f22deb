"""AsRouter edge cases not reachable through the happy paths."""

import pytest

from repro.internet.build import Internet
from repro.internet.host import Datagram
from repro.scion.addr import HostAddr
from repro.simnet.packet import Packet
from repro.topology.defaults import remote_testbed
from repro.topology.isd_as import IsdAs


@pytest.fixture
def world():
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=80)
    client = internet.add_host("client", ases.client)
    server = internet.add_host("server", ases.remote_server)
    return internet, ases, client, server


def raw_packet(client, server, protocol, path=None, hop_index=0, size=64):
    datagram = Datagram(src=client.addr, src_port=1, dst=server.addr,
                        dst_port=2, payload=b"x", size=size, via="ip")
    return Packet(src=client.addr, dst=server.addr, payload=datagram,
                  size=size, protocol=protocol, path=path,
                  hop_index=hop_index)


class TestScionEdgeCases:
    def test_unknown_protocol_dropped_silently(self, world):
        internet, ases, client, server = world
        client.send(raw_packet(client, server, "carrier-pigeon"),
                    client.ROUTER_IFID)
        internet.run()
        assert server.datagrams_received == 0

    def test_scion_packet_without_path_to_remote_counted(self, world):
        """A pathless SCION packet can only be delivered intra-AS; for a
        remote destination the local router drops it (no such host)."""
        internet, ases, client, server = world
        packet = raw_packet(client, server, "scion", path=None, hop_index=0)
        client.send(packet, client.ROUTER_IFID)
        internet.run()
        assert server.datagrams_received == 0
        assert internet.routers[ases.client].no_host == 1

    def test_hop_index_beyond_path_counted(self, world):
        internet, ases, client, server = world
        path = client.daemon.paths(ases.remote_server)[0]
        packet = raw_packet(client, server, "scion", path=path, hop_index=99)
        client.send(packet, client.ROUTER_IFID)
        internet.run()
        assert internet.routers[ases.client].path_errors == 1

    def test_wrong_as_in_hop_counted(self, world):
        internet, ases, client, server = world
        # A path that starts at a different AS: the client's router is
        # not the AS named in hop 0.
        foreign = internet.add_host("foreign", ases.nearby_server)
        path = foreign.daemon.paths(ases.remote_server)[0]
        packet = raw_packet(client, server, "scion", path=path, hop_index=0)
        client.send(packet, client.ROUTER_IFID)
        internet.run()
        assert internet.routers[ases.client].path_errors == 1


class TestIpEdgeCases:
    def test_no_route_counted(self, world):
        internet, ases, client, _server = world
        # Empty the client router's table to simulate a withdrawn route.
        internet.routers[ases.client].ip_table = {}
        ghost = HostAddr(IsdAs.parse("2-ff00:0:220"), "server")
        socket = client.udp_socket()
        socket.send(ghost, 1, b"x", 16, via="ip")
        internet.run()
        assert internet.routers[ases.client].no_route == 1

    def test_transit_charges_internal_latency(self, world):
        """Delivery through a transit AS must include that AS's internal
        latency (control-plane metadata counts it too)."""
        internet, ases, client, server = world
        socket_server = server.udp_socket(9)
        received_at = []

        def listen():
            yield socket_server.recv()
            received_at.append(internet.loop.now)

        internet.loop.process(listen())
        socket = client.udp_socket()
        socket.send(server.addr, 9, b"x", 16, via="ip")
        internet.run()
        one_way = internet.bgp.path_latency_ms(ases.client,
                                               ases.remote_server)
        assert received_at[0] == pytest.approx(one_way, rel=0.05)


class TestLinkDownTrace:
    def test_drop_down_event_recorded(self):
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=81, trace=True)
        client = internet.add_host("client", ases.client)
        server = internet.add_host("server", ases.remote_server)
        internet.set_link_state(ases.local_core, ases.remote_core, up=False)
        socket = client.udp_socket()
        socket.send(server.addr, 9, b"x", 16, via="ip")
        internet.run()
        drops = internet.network.trace.drops()
        assert any(entry.event == "drop-down" for entry in drops)
