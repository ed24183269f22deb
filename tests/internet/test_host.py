"""Host sockets and the transports on them leave no timer behind: once
the last packet lands, the world is idle and the clock stops there."""

import pytest

from repro.internet.build import Internet
from repro.ip.tcp import HANDSHAKE_TIMEOUT_MS, TcpListener, tcp_connect
from repro.quic.connection import QuicListener, quic_connect
from repro.topology.defaults import remote_testbed


def idle_handler(_connection):
    return
    yield


def watched_testbed():
    """A client and a remote server, recording every packet arrival."""
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=8)
    client = internet.add_host("client", ases.client)
    server = internet.add_host("server", ases.remote_server)
    arrivals = []
    for host in (client, server):
        def receive(packet, ifid, real=host.receive):
            arrivals.append(internet.loop.now)
            real(packet, ifid)

        host.receive = receive
    return internet, ases, client, server, arrivals


@pytest.mark.parametrize("protocol", ["tcp", "quic"])
def test_connect_leaves_no_watchdog_behind(protocol):
    """The handshake waits for its reply with a timeout. Once the reply
    arrives the world is idle, so the clock must stop at the last packet
    instead of running on to the watchdog's deadline."""
    internet, ases, client, server, arrivals = watched_testbed()
    if protocol == "tcp":
        TcpListener(server, 80, idle_handler)
        connect = tcp_connect(client, server.addr, 80)
    else:
        QuicListener(server, 443, idle_handler)
        path = client.daemon.paths(ases.remote_server)[0]
        connect = quic_connect(client, server.addr, 443, path=path)

    def main():
        yield from connect
        return internet.loop.now

    connected_at = internet.loop.run_process(main())
    internet.run()
    assert arrivals[-1] == connected_at < HANDSHAKE_TIMEOUT_MS
    assert internet.loop.now == connected_at


def tcp_pong(connection):
    yield connection.recv()
    connection.send("pong", 20_000)


def quic_pong(connection):
    stream = yield connection.accept_stream()
    yield stream.recv()
    stream.send("pong", 20_000)


@pytest.mark.parametrize("protocol", ["tcp", "quic"])
def test_transfer_leaves_no_retransmission_timer_behind(protocol,
                                                         monkeypatch):
    """Every ACK re-arms or cancels the sender's retransmission timer.
    A superseded timer must leave the loop, or the last one keeps the
    clock running past the final ACK to its deadline. Packet level, so
    the reliable channel really runs."""
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    internet, ases, client, server, arrivals = watched_testbed()
    if protocol == "tcp":
        TcpListener(server, 80, tcp_pong)
        connect = tcp_connect(client, server.addr, 80)
    else:
        QuicListener(server, 443, quic_pong)
        path = client.daemon.paths(ases.remote_server)[0]
        connect = quic_connect(client, server.addr, 443, path=path)

    def main():
        connection = yield from connect
        endpoint = connection if protocol == "tcp" \
            else connection.open_stream()
        endpoint.send("ping", 5_000)
        reply = yield endpoint.recv()
        return reply

    assert internet.loop.run_process(main()) == "pong"
    internet.run()
    assert internet.fastpath is None
    assert internet.loop.now == arrivals[-1]
