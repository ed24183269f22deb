"""QUIC: handshake, stream independence, lifecycle."""

import pytest

from repro.errors import ConnectionClosedError, HandshakeError
from repro.internet.build import Internet
from repro.quic.connection import QuicListener, quic_connect
from repro.topology.defaults import remote_testbed


@pytest.fixture
def world():
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=8)
    client = internet.add_host("client", ases.client)
    server = internet.add_host("server", ases.remote_server)
    return internet, ases, client, server


def echo_connection_handler(internet):
    def handler(connection):
        while True:
            stream = yield connection.accept_stream()

            def serve(s):
                while True:
                    try:
                        message = yield s.recv()
                    except ConnectionClosedError:
                        return
                    s.send(("echo", message), 800)

            internet.loop.process(serve(stream))

    return handler


class TestHandshake:
    def test_one_rtt_setup_over_scion(self, world):
        internet, ases, client, server = world
        QuicListener(server, 443, echo_connection_handler(internet))
        path = client.daemon.paths(ases.remote_server)[0]

        def main():
            start = internet.loop.now
            connection = yield from quic_connect(client, server.addr, 443,
                                                 path=path)
            return internet.loop.now - start, connection.initial_rtt_ms

        elapsed, rtt_estimate = internet.loop.run_process(main())
        expected = 2 * path.metadata.latency_ms
        assert elapsed == pytest.approx(expected, rel=0.05)
        assert rtt_estimate == pytest.approx(expected, rel=0.05)

    def test_handshake_timeout(self, world):
        internet, ases, client, server = world
        path = client.daemon.paths(ases.remote_server)[0]

        def main():
            with pytest.raises(HandshakeError):
                yield from quic_connect(client, server.addr, 4444,
                                        path=path, timeout_ms=40.0,
                                        retries=2)
            return "done"

        assert internet.loop.run_process(main()) == "done"


class TestStreams:
    def test_multiple_streams_one_connection(self, world):
        internet, ases, client, server = world
        QuicListener(server, 443, echo_connection_handler(internet))
        path = client.daemon.paths(ases.remote_server)[0]

        def main():
            connection = yield from quic_connect(client, server.addr, 443,
                                                 path=path)
            streams = [connection.open_stream() for _ in range(3)]
            for index, stream in enumerate(streams):
                stream.send(index, 400)
            replies = []
            for stream in streams:
                reply = yield stream.recv()
                replies.append(reply[1])
            return replies

        assert internet.loop.run_process(main()) == [0, 1, 2]

    def test_stream_ids_spaced(self, world):
        internet, ases, client, server = world
        QuicListener(server, 443, echo_connection_handler(internet))
        path = client.daemon.paths(ases.remote_server)[0]

        def main():
            connection = yield from quic_connect(client, server.addr, 443,
                                                 path=path)
            return [connection.open_stream().stream_id for _ in range(3)]

        assert internet.loop.run_process(main()) == [0, 4, 8]

    def test_three_streams_on_both_ends(self, world):
        """The first stream sits in the connection's slot, the second
        and third in its dict; frames reach the right stream on both
        ends, and a close reaches all three."""
        internet, ases, client, server = world
        accepted = []

        def handler(connection):
            accepted.append(connection)
            for _ in range(3):
                stream = yield connection.accept_stream()
                internet.loop.process(echo_once(stream))

        def echo_once(stream):
            message = yield stream.recv()
            stream.send(("echo", message), 300 + 1_000 * message)
            try:
                yield stream.recv()
            except ConnectionClosedError:
                return "closed"

        QuicListener(server, 443, handler)
        path = client.daemon.paths(ases.remote_server)[0]

        def main():
            connection = yield from quic_connect(client, server.addr, 443,
                                                 path=path)
            streams = [connection.open_stream() for _ in range(3)]
            for index, stream in reversed(list(enumerate(streams))):
                stream.send(index, 5_000 * (3 - index))
            replies = []
            for stream in streams:
                replies.append((yield stream.recv()))
            return connection, replies

        connection, replies = internet.loop.run_process(main())
        assert replies == [("echo", 0), ("echo", 1), ("echo", 2)]
        (peer,) = accepted
        assert list(connection.streams) == [0, 4, 8]
        # The peer brings streams up in the order their frames arrive.
        assert list(peer.streams) == [8, 4, 0]
        assert [stream.channel.stats.messages_delivered
                for stream in peer.streams.values()] == [1, 1, 1]
        connection.close()
        internet.run()
        assert peer.closed
        assert all(stream.channel.remote_closed
                   for stream in peer.streams.values())

    def test_no_cross_stream_head_of_line_blocking(self):
        """Loss on one stream must not delay another stream's delivery:
        each stream retransmits independently."""
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=6)
        client = internet.add_host("client", ases.client)
        server = internet.add_host("server", ases.remote_server)
        QuicListener(server, 443, echo_connection_handler(internet))
        path = client.daemon.paths(ases.remote_server)[0]

        def main():
            connection = yield from quic_connect(client, server.addr, 443,
                                                 path=path)
            bulky = connection.open_stream()
            nimble = connection.open_stream()
            bulky.send("bulk", 500_000)   # many segments, slow to finish
            nimble.send("quick", 200)
            reply = yield nimble.recv()
            quick_done = internet.loop.now
            reply_bulk = yield bulky.recv()
            bulk_done = internet.loop.now
            return quick_done, bulk_done

        quick_done, bulk_done = internet.loop.run_process(main())
        assert quick_done < bulk_done


class TestLifecycle:
    def test_close_propagates_to_peer_streams(self, world):
        internet, ases, client, server = world
        accepted = []

        def handler(connection):
            stream = yield connection.accept_stream()
            accepted.append(connection)
            message = yield stream.recv()
            stream.send(message, 100)

        QuicListener(server, 443, handler)
        path = client.daemon.paths(ases.remote_server)[0]

        def main():
            connection = yield from quic_connect(client, server.addr, 443,
                                                 path=path)
            stream = connection.open_stream()
            stream.send("x", 100)
            yield stream.recv()
            connection.close()
            yield internet.loop.timeout(500)
            return connection.closed

        assert internet.loop.run_process(main())
        assert accepted[0].closed

    def test_open_stream_after_close_rejected(self, world):
        internet, ases, client, server = world
        QuicListener(server, 443, echo_connection_handler(internet))
        path = client.daemon.paths(ases.remote_server)[0]

        def main():
            connection = yield from quic_connect(client, server.addr, 443,
                                                 path=path)
            connection.close()
            with pytest.raises(ConnectionClosedError):
                connection.open_stream()
            return "ok"

        assert internet.loop.run_process(main()) == "ok"

    def test_server_replies_use_reversed_path(self, world):
        """The server never queries the path daemon: responses ride the
        reversed client path."""
        internet, ases, client, server = world
        QuicListener(server, 443, echo_connection_handler(internet))
        assert server.daemon.stats.queries == 0
        path = client.daemon.paths(ases.remote_server)[0]

        def main():
            connection = yield from quic_connect(client, server.addr, 443,
                                                 path=path)
            stream = connection.open_stream()
            stream.send("probe", 100)
            yield stream.recv()
            return True

        assert internet.loop.run_process(main())
        assert server.daemon.stats.queries == 0
