"""Host sockets: a receive watchdog does not outlive its wait."""

import pytest

from repro.internet.build import Internet
from repro.ip.tcp import HANDSHAKE_TIMEOUT_MS, TcpListener, tcp_connect
from repro.quic.connection import QuicListener, quic_connect
from repro.topology.defaults import remote_testbed


def idle_handler(_connection):
    return
    yield


@pytest.mark.parametrize("protocol", ["tcp", "quic"])
def test_connect_leaves_no_watchdog_behind(protocol):
    """The handshake waits for its reply with a timeout. Once the reply
    arrives the world is idle, so the clock must stop at the last packet
    instead of running on to the watchdog's deadline."""
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
