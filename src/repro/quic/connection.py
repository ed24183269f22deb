"""QUIC connections, streams, listeners, and the client connect routine.

Stream data rides in :class:`StreamFrame` envelopes that tag each
reliability-engine frame with its stream id; every stream runs an
independent :class:`~repro.transport.reliable.ReliableChannel`, which is
how QUIC avoids cross-stream head-of-line blocking.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any

from repro.errors import ConnectionClosedError, HandshakeError, TransportError
from repro.internet.host import Datagram, Host, UdpSocket
from repro.obs.spans import NULL_SPAN, NULL_TRACER
from repro.scion.addr import HostAddr
from repro.scion.path import ScionPath
from repro.transport.reliable import ReliableChannel

#: Per-segment QUIC header bytes (short header + stream frame header).
QUIC_HEADER_BYTES = 28
#: Wire size of handshake datagrams (Initial packets are padded in real
#: QUIC; we charge a representative size).
HANDSHAKE_BYTES = 120
HANDSHAKE_TIMEOUT_MS = 1000.0
HANDSHAKE_RETRIES = 5

_conn_ids = itertools.count(1)


@dataclass(frozen=True)
class ClientHello:
    """Handshake initiation (crypto exchange abstracted away)."""

    conn_id: int


@dataclass(frozen=True)
class ServerHello:
    """Handshake completion."""

    conn_id: int


@dataclass(frozen=True)
class StreamFrame:
    """A reliability-engine frame scoped to one stream."""

    stream_id: int
    frame: Any


@dataclass(frozen=True)
class ConnectionClose:
    """Immediate connection teardown."""

    conn_id: int


class QuicStream:
    """One bidirectional stream of a connection."""

    def __init__(self, connection: "QuicConnection", stream_id: int) -> None:
        self.connection = connection
        self.stream_id = stream_id
        self.channel = ReliableChannel(
            connection.loop,
            transmit=self._transmit,
            header_bytes=QUIC_HEADER_BYTES,
            initial_rtt_ms=connection.initial_rtt_ms,
        )

    def _transmit(self, frame: Any, size: int) -> None:
        self.connection.send_frame(StreamFrame(self.stream_id, frame), size)

    def send(self, payload: Any, size: int) -> None:
        """Send one application message of ``size`` bytes."""
        if self.connection.closed:
            raise ConnectionClosedError("connection is closed")
        fastpath = self.connection.fastpath
        if fastpath is not None and fastpath.try_send(
                self.connection, self.stream_id, self.channel, payload, size):
            return
        self.channel.send_message(payload, size)

    def recv(self):
        """Event yielding the next in-order message on this stream."""
        return self.channel.recv_message()

    def close(self) -> None:
        """Close our sending direction of the stream."""
        fastpath = self.connection.fastpath
        if fastpath is not None and fastpath.defer_close(self.channel):
            return  # close re-issued once the analytic transfer lands
        self.channel.close()


class QuicConnection:
    """An established QUIC connection (either side)."""

    #: Set by :meth:`repro.simnet.fastpath.FastPath.register` when the
    #: world runs with the hybrid-fidelity fast path enabled.
    fastpath = None
    _fp_record = None

    def __init__(self, loop, conn_id: int,
                 send_datagram: Callable[[Any, int], None],
                 initial_rtt_ms: float, is_client: bool) -> None:
        self.loop = loop
        self.conn_id = conn_id
        self._send_datagram = send_datagram
        self.initial_rtt_ms = initial_rtt_ms
        self.is_client = is_client
        self.closed = False
        self.streams: dict[int, QuicStream] = {}
        self._next_stream_id = 0 if is_client else 1
        self._accept_queue: deque[QuicStream] = deque()
        self._accept_waiters: deque = deque()

    # -- streams -----------------------------------------------------------------

    def open_stream(self) -> QuicStream:
        """Open a new locally-initiated bidirectional stream."""
        if self.closed:
            raise ConnectionClosedError("connection is closed")
        stream = QuicStream(self, self._next_stream_id)
        self.streams[self._next_stream_id] = stream
        self._next_stream_id += 4
        return stream

    def accept_stream(self):
        """Event yielding the next peer-initiated stream."""
        event = self.loop.event()
        if self._accept_queue:
            event.succeed(self._accept_queue.popleft())
        elif self.closed:
            event.fail(ConnectionClosedError("connection is closed"))
        else:
            self._accept_waiters.append(event)
        return event

    # -- frame plumbing ------------------------------------------------------------

    def send_frame(self, frame: StreamFrame, size: int) -> None:
        """Put a stream frame on the wire (called by streams)."""
        if self.closed:
            return
        self._send_datagram(frame, size)

    def on_datagram(self, datagram: Datagram) -> None:
        """Feed an incoming datagram into the right stream."""
        payload = datagram.payload
        if isinstance(payload, ConnectionClose):
            self._handle_close()
            return
        if not isinstance(payload, StreamFrame):
            return  # stray handshake duplicates
        stream = self.streams.get(payload.stream_id)
        if stream is None:
            stream = QuicStream(self, payload.stream_id)
            self.streams[payload.stream_id] = stream
            if self._accept_waiters:
                self._accept_waiters.popleft().succeed(stream)
            else:
                self._accept_queue.append(stream)
        stream.channel.on_frame(payload.frame)

    def fastpath_channel(self, stream_id: int) -> "ReliableChannel":
        """Receiving channel for an analytically-delivered transfer.

        Mirrors :meth:`on_datagram`'s stream bring-up — the peer stream
        is created (and accept waiters woken) at delivery time, exactly
        when the first data packet would have arrived.
        """
        stream = self.streams.get(stream_id)
        if stream is None:
            stream = QuicStream(self, stream_id)
            self.streams[stream_id] = stream
            if self._accept_waiters:
                self._accept_waiters.popleft().succeed(stream)
            else:
                self._accept_queue.append(stream)
        return stream.channel

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        """Tear the connection down and notify the peer."""
        if self.closed:
            return
        self._send_datagram(ConnectionClose(self.conn_id), 32)
        self._handle_close()

    def _handle_close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for stream in self.streams.values():
            stream.channel._on_close()  # noqa: SLF001 - deliberate teardown
        while self._accept_waiters:
            self._accept_waiters.popleft().fail(
                ConnectionClosedError("connection closed"))


class QuicListener:
    """A listening QUIC endpoint spawning one handler per connection."""

    def __init__(self, host: Host, port: int,
                 handler: Callable[[QuicConnection], Generator]) -> None:
        self.host = host
        self.port = port
        self.handler = handler
        self.socket: UdpSocket = host.udp_socket(port)
        self.connections: dict[tuple[HostAddr, int], QuicConnection] = {}
        self.accepted = 0
        assert host.loop is not None
        host.loop.process(self._accept_loop(),
                          name=f"quic-listen:{host.name}:{port}")

    def close(self) -> None:
        """Stop accepting new connections."""
        self.socket.close()

    def _accept_loop(self) -> Generator:
        while True:
            datagram = yield self.socket.recv()
            key = (datagram.src, datagram.src_port)
            if isinstance(datagram.payload, ClientHello):
                if key not in self.connections:
                    self.connections[key] = self._establish(datagram)
                    self.accepted += 1
                self._reply(datagram,
                            ServerHello(conn_id=datagram.payload.conn_id))
                continue
            connection = self.connections.get(key)
            if connection is not None:
                connection.on_datagram(datagram)

    def _establish(self, hello: Datagram) -> QuicConnection:
        reply_path = hello.path.reverse() if hello.path is not None else None

        def send_datagram(frame: Any, size: int) -> None:
            self.socket.send(hello.src, hello.src_port, frame, size,
                             via=hello.via, path=reply_path)

        assert self.host.loop is not None
        connection = QuicConnection(
            self.host.loop, conn_id=hello.payload.conn_id,
            send_datagram=send_datagram, initial_rtt_ms=50.0, is_client=False)
        if self.host.fastpath is not None:
            self.host.fastpath.register(
                connection, "quic", hello.payload.conn_id, "server",
                self.host, hello.src, hello.via, reply_path)
        self.host.loop.process(self.handler(connection),
                               name=f"quic-handler:{self.host.name}:{self.port}")
        return connection

    def _reply(self, datagram: Datagram, frame: Any) -> None:
        reply_path = datagram.path.reverse() if datagram.path is not None else None
        self.socket.send(datagram.src, datagram.src_port, frame,
                         HANDSHAKE_BYTES, via=datagram.via, path=reply_path)


def quic_connect(host: Host, dst: HostAddr, dst_port: int,
                 via: str = "scion", path: ScionPath | None = None,
                 timeout_ms: float = HANDSHAKE_TIMEOUT_MS,
                 retries: int = HANDSHAKE_RETRIES,
                 tracer=NULL_TRACER, parent=NULL_SPAN) -> Generator:
    """Open a QUIC connection (simulation process).

    Usage: ``conn = yield from quic_connect(host, dst, 443, path=p)``.
    Raises :class:`HandshakeError` after ``retries`` unanswered hellos.
    """
    assert host.loop is not None
    loop = host.loop
    span = tracer.span("quic.handshake", parent=parent, via=via) \
        if tracer.enabled else NULL_SPAN
    socket = host.udp_socket()
    conn_id = next(_conn_ids)
    start = loop.now
    established = False
    attempts = 0
    for _attempt in range(retries):
        attempts += 1
        socket.send(dst, dst_port, ClientHello(conn_id=conn_id),
                    HANDSHAKE_BYTES, via=via, path=path)
        datagram = yield socket.recv(timeout_ms=timeout_ms)
        if datagram is None:
            span.event("hello-timeout", attempt=attempts)
            continue
        if isinstance(datagram.payload, ServerHello) and \
                datagram.payload.conn_id == conn_id:
            established = True
            break
    if not established:
        socket.close()
        span.set(attempts=attempts, error="HandshakeError").end("error")
        raise HandshakeError(
            f"QUIC connect {host.name} -> {dst}:{dst_port} failed after "
            f"{retries} attempts")
    rtt = max(0.1, loop.now - start)
    span.set(attempts=attempts, rtt_ms=rtt).end()

    def send_datagram(frame: Any, size: int) -> None:
        socket.send(dst, dst_port, frame, size, via=via, path=path)

    connection = QuicConnection(loop, conn_id=conn_id,
                                send_datagram=send_datagram,
                                initial_rtt_ms=rtt, is_client=True)
    if getattr(host, "fastpath", None) is not None:
        host.fastpath.register(connection, "quic", conn_id, "client",
                               host, dst, via, path)

    def receive_loop() -> Generator:
        while True:
            try:
                datagram = yield socket.recv()
            except TransportError:
                return
            if datagram is not None and not isinstance(
                    datagram.payload, (ClientHello, ServerHello)):
                connection.on_datagram(datagram)

    loop.process(receive_loop(), name=f"quic-recv:{host.name}:{socket.port}")
    return connection
