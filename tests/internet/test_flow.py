"""A socket's bound flow sends what ``UdpSocket.send`` sends and refuses
what it refuses.

``UdpSocket.connect(dst, port, via, path)`` resolves the header bytes,
the protocol and the host's uplink once; ``UdpSocket.send`` builds the
same flow per call. So every error a send can raise is raised by the
``send`` call itself, before anything reaches the wire, and a flow bound
earlier refuses to send once its socket is closed.
"""

import pytest

from repro.errors import AddressError, SimulationError, TransportError
from repro.internet.build import Internet
from repro.internet.host import (IP_HEADER_BYTES, SCION_LOCAL_HEADER_BYTES,
                                 UDP_HEADER_BYTES, Datagram, Host)
from repro.scion.addr import HostAddr
from repro.topology.defaults import remote_testbed
from repro.topology.isd_as import IsdAs


@pytest.fixture
def world():
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=80, trace=True)
    client = internet.add_host("client", ases.client)
    server = internet.add_host("server", ases.remote_server)
    return internet, client, server


def _wire(internet):
    return sum(link.packets_sent for link in internet.network.links)


class TestErrorsRaisedBySend:
    def test_unwired_host(self):
        host = Host("lonely", HostAddr(IsdAs(1, 1), "lonely"))
        socket = host.udp_socket()
        with pytest.raises(SimulationError, match="no port 1"):
            socket.send(host.addr, 7, b"x", 8, via="ip")

    def test_scion_to_a_remote_as_without_a_path(self, world):
        internet, client, server = world
        socket = client.udp_socket()
        with pytest.raises(TransportError, match="needs a path"):
            socket.send(server.addr, 7, b"x", 8, via="scion")
        with pytest.raises(TransportError, match="needs a path"):
            socket.connect(server.addr, 7, via="scion")
        assert _wire(internet) == 0

    def test_closed_socket(self, world):
        internet, client, server = world
        socket = client.udp_socket()
        socket.close()
        with pytest.raises(TransportError, match="is closed"):
            socket.send(server.addr, 7, b"x", 8, via="ip")
        with pytest.raises(TransportError, match="is closed"):
            socket.connect(server.addr, 7, via="ip")
        assert _wire(internet) == 0

    def test_unknown_via(self, world):
        internet, client, server = world
        socket = client.udp_socket()
        with pytest.raises(AddressError, match="unknown via"):
            socket.send(server.addr, 7, b"x", 8, via="carrier-pigeon")
        with pytest.raises(AddressError, match="unknown via"):
            socket.connect(server.addr, 7, via="carrier-pigeon")
        assert _wire(internet) == 0

    def test_closed_wins_over_a_bad_via(self, world):
        """The checks run in the order they always ran: closed first."""
        _internet, client, server = world
        socket = client.udp_socket()
        socket.close()
        with pytest.raises(TransportError, match="is closed"):
            socket.send(server.addr, 7, b"x", 8, via="carrier-pigeon")


class TestBoundFlow:
    def test_refuses_to_send_once_its_socket_closed(self, world):
        internet, client, server = world
        socket = client.udp_socket()
        flow = socket.connect(server.addr, 7, via="ip")
        socket.close()
        with pytest.raises(TransportError, match="is closed"):
            flow.send(b"x", 8)
        assert _wire(internet) == 0

    @pytest.mark.parametrize("via", ["scion", "ip"])
    def test_sends_what_socket_send_sends(self, world, via):
        internet, client, server = world
        path = client.daemon.paths(server.addr.isd_as)[0] \
            if via == "scion" else None
        inbox = server.udp_socket(7)
        socket = client.udp_socket()
        flow = socket.connect(server.addr, 7, via=via, path=path)
        flow.send("flow", 100)
        socket.send(server.addr, 7, "send", 100, via=via, path=path)
        internet.loop.run()
        first = inbox.recv().value
        second = inbox.recv().value
        assert isinstance(first, Datagram)
        assert first._replace(payload="send") == second
        assert (first.src, first.src_port, first.via, first.path) == \
            (client.addr, socket.port, via, path)
        header = (path.header_bytes() if via == "scion"
                  else IP_HEADER_BYTES)
        sends = [entry for entry in internet.network.trace.events("send")
                 if entry.src == client.addr]
        assert {entry.size for entry in sends} == \
            {100 + UDP_HEADER_BYTES + header}
        assert {entry.protocol for entry in sends} == {via}
        assert client.datagrams_sent == 2
        assert server.datagrams_received == 2

    def test_intra_as_scion_carries_no_path(self, world):
        internet, client, _server = world
        peer = internet.add_host("peer", client.addr.isd_as)
        inbox = peer.udp_socket(7)
        client.udp_socket().connect(peer.addr, 7, via="scion").send("x", 10)
        internet.loop.run()
        assert inbox.recv().value.path is None
        sizes = {entry.size for entry in internet.network.trace.events("send")}
        assert sizes == {10 + UDP_HEADER_BYTES + SCION_LOCAL_HEADER_BYTES}
