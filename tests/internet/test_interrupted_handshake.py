"""A handshake interrupted mid-wait gives back what it holds.

``quic_connect`` and ``tcp_connect`` wait on ``socket.recv(timeout_ms=)``
for the peer's hello. An ``Interrupt`` thrown there — a request
watchdog, an aborted session — must close the socket (releasing its
port and disarming the hello deadline, which would otherwise drag the
clock past quiescence), end the ``quic.handshake`` span with the error,
and propagate.
"""

import pytest

from repro.internet.build import Internet
from repro.ip.tcp import tcp_connect
from repro.obs.spans import Tracer
from repro.quic.connection import quic_connect
from repro.simnet.events import Interrupt
from repro.topology.defaults import remote_testbed


@pytest.mark.parametrize("protocol", ["quic", "tcp"])
def test_interrupted_handshake_releases_its_socket(protocol):
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=8)
    loop = internet.loop
    client = internet.add_host("client", ases.client)
    server = internet.add_host("server", ases.remote_server)
    tracer = Tracer(loop)
    path = client.daemon.paths(ases.remote_server)[0]
    ports_before = set(client._sockets)

    def main():
        # Nobody listens on 4444: the hello goes unanswered.
        if protocol == "quic":
            yield from quic_connect(client, server.addr, 4444, path=path,
                                    timeout_ms=1_000.0, tracer=tracer)
        else:
            yield from tcp_connect(client, server.addr, 4444,
                                   timeout_ms=1_000.0)

    process = loop.process(main())
    loop.call_later(100.0, process.interrupt, "abort")
    loop.run()
    assert isinstance(process.exception, Interrupt)
    assert process.exception.cause == "abort"
    assert set(client._sockets) == ports_before
    # The hello deadline was withdrawn, not left to fire at 1,000 ms.
    assert loop.now < 1_000.0
    assert not loop._queue and not loop._cancelled
    assert tracer.open_spans() == []
    if protocol == "quic":
        span, = tracer.spans_named("quic.handshake")
        assert span.attributes["error"] == "Interrupt"
