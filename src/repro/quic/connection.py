"""QUIC connections, streams, listeners, and the client connect routine.

Stream data rides in :class:`StreamFrame` envelopes that tag each
reliability-engine frame with its stream id; every stream runs an
independent :class:`~repro.transport.reliable.ReliableChannel`, which is
how QUIC avoids cross-stream head-of-line blocking.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.errors import ConnectionClosedError, HandshakeError
from repro.internet.host import Datagram, Host, UdpFlow, UdpSocket
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

#: ``StreamFrame(...)`` without the generated ``__new__`` frame.
_new_stream_frame = tuple.__new__


@dataclass(frozen=True)
class ClientHello:
    """Handshake initiation (crypto exchange abstracted away)."""

    conn_id: int


@dataclass(frozen=True)
class ServerHello:
    """Handshake completion."""

    conn_id: int


class StreamFrame(NamedTuple):
    """A reliability-engine frame scoped to one stream (immutable)."""

    stream_id: int
    frame: Any


@dataclass(frozen=True)
class ConnectionClose:
    """Immediate connection teardown."""

    conn_id: int


class QuicStream:
    """One bidirectional stream of a connection."""

    __slots__ = ("connection", "stream_id", "channel")

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
        connection = self.connection
        if not connection.closed:
            connection._flow.send(  # noqa: SLF001 - the connection's own flow
                _new_stream_frame(StreamFrame, (self.stream_id, frame)), size)

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

    __slots__ = ("loop", "conn_id", "_flow", "initial_rtt_ms", "is_client",
                 "closed", "_stream", "_streams", "_next_stream_id",
                 "_accept_queue", "_accept_waiters", "fastpath", "_fp_record")

    def __init__(self, loop, conn_id: int, flow: UdpFlow,
                 initial_rtt_ms: float, is_client: bool) -> None:
        self.loop = loop
        self.conn_id = conn_id
        #: Every frame of the connection goes out through this flow.
        self._flow = flow
        self.initial_rtt_ms = initial_rtt_ms
        self.is_client = is_client
        self.closed = False
        #: The first stream, and the later ones by id (None until there
        #: is a second): a pooled HTTP connection carries exactly one.
        self._stream: QuicStream | None = None
        self._streams: dict[int, QuicStream] | None = None
        self._next_stream_id = 0 if is_client else 1
        #: Peer-opened streams not yet accepted, and accepts waiting for
        #: one (each None while empty).
        self._accept_queue: list[QuicStream] | None = None
        self._accept_waiters: list | None = None
        #: Set by :meth:`repro.simnet.fastpath.FastPath.register` when the
        #: world runs with the hybrid-fidelity fast path enabled.
        self.fastpath = None
        self._fp_record = None

    # -- streams -----------------------------------------------------------------

    @property
    def streams(self) -> dict[int, QuicStream]:
        """Every stream of the connection by id, in the order they came
        up (a fresh dict)."""
        streams = {} if self._stream is None else {
            self._stream.stream_id: self._stream}
        if self._streams is not None:
            streams.update(self._streams)
        return streams

    def _add_stream(self, stream: QuicStream) -> None:
        if self._stream is None:
            self._stream = stream
        elif self._streams is None:
            self._streams = {stream.stream_id: stream}
        else:
            self._streams[stream.stream_id] = stream

    def _other_stream(self, stream_id: int) -> QuicStream:
        """Stream ``stream_id`` when it is not the first one: a later
        stream, or one the peer just opened (brought up here)."""
        streams = self._streams
        if streams is not None and stream_id in streams:
            return streams[stream_id]
        return self._peer_stream(stream_id)

    def open_stream(self) -> QuicStream:
        """Open a new locally-initiated bidirectional stream."""
        if self.closed:
            raise ConnectionClosedError("connection is closed")
        stream = QuicStream(self, self._next_stream_id)
        self._add_stream(stream)
        self._next_stream_id += 4
        return stream

    def accept_stream(self):
        """Event yielding the next peer-initiated stream."""
        event = self.loop.event()
        queue = self._accept_queue
        if queue:
            event.succeed(queue.pop(0))
            if not queue:
                self._accept_queue = None
        elif self.closed:
            event.fail(ConnectionClosedError("connection is closed"))
        elif self._accept_waiters is None:
            self._accept_waiters = [event]
        else:
            self._accept_waiters.append(event)
        return event

    # -- frame plumbing ------------------------------------------------------------

    def on_datagram(self, datagram: Datagram) -> None:
        """Feed an incoming datagram into the right stream."""
        payload = datagram.payload
        if type(payload) is not StreamFrame:
            if isinstance(payload, ConnectionClose):
                self._handle_close()
                return
            if not isinstance(payload, StreamFrame):
                return  # stray handshake duplicates (ClientHello / ServerHello)
        stream = self._stream
        if stream is None or stream.stream_id != payload.stream_id:
            stream = self._other_stream(payload.stream_id)
        stream.channel.on_frame(payload.frame)

    def fastpath_channel(self, stream_id: int) -> "ReliableChannel":
        """Receiving channel for an analytically-delivered transfer.

        Mirrors :meth:`on_datagram`'s stream bring-up — the peer stream
        is created (and accept waiters woken) at delivery time, exactly
        when the first data packet would have arrived.
        """
        stream = self._stream
        if stream is None or stream.stream_id != stream_id:
            stream = self._other_stream(stream_id)
        return stream.channel

    def _peer_stream(self, stream_id: int) -> QuicStream:
        """Bring up a peer-initiated stream and hand it to an accept."""
        stream = QuicStream(self, stream_id)
        self._add_stream(stream)
        waiters = self._accept_waiters
        if waiters:
            waiter = waiters.pop(0)
            if not waiters:
                self._accept_waiters = None
            waiter.succeed(stream)
        elif self._accept_queue is None:
            self._accept_queue = [stream]
        else:
            self._accept_queue.append(stream)
        return stream

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        """Tear the connection down and notify the peer."""
        if self.closed:
            return
        self._flow.send(ConnectionClose(self.conn_id), 32)
        self._handle_close()

    def _handle_close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for stream in self.streams.values():
            stream.channel._on_close()  # noqa: SLF001 - deliberate teardown
        waiters, self._accept_waiters = self._accept_waiters, None
        for waiter in waiters or ():
            waiter.fail(ConnectionClosedError("connection closed"))

    def detach(self) -> None:
        """Let go of the streams, and each stream's channel of the
        stream, in a finished world (see :meth:`UdpSocket.detach`)."""
        for stream in self.streams.values():
            stream.channel.transmit = None
        self._stream = self._streams = None
        self._accept_queue = self._accept_waiters = None


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
        self.socket.listen(self._on_datagram)

    def close(self) -> None:
        """Stop accepting new connections."""
        self.socket.close()

    def detach(self) -> None:
        """Let go of the handler and of what every connection holds, in
        a finished world (see :meth:`UdpSocket.detach`)."""
        self.handler = None
        for connection in self.connections.values():
            connection.detach()

    def _on_datagram(self, datagram: Datagram) -> None:
        key = (datagram.src, datagram.src_port)
        if isinstance(datagram.payload, ClientHello):
            if key not in self.connections:
                self.connections[key] = self._establish(datagram)
                self.accepted += 1
            self._reply(datagram,
                        ServerHello(conn_id=datagram.payload.conn_id))
            return
        connection = self.connections.get(key)
        if connection is not None:
            connection.on_datagram(datagram)

    def _establish(self, hello: Datagram) -> QuicConnection:
        reply_path = hello.path.reverse() if hello.path is not None else None
        flow = self.socket.connect(hello.src, hello.src_port, hello.via,
                                   reply_path)
        assert self.host.loop is not None
        connection = QuicConnection(
            self.host.loop, conn_id=hello.payload.conn_id, flow=flow,
            initial_rtt_ms=50.0, is_client=False)
        if self.host.fastpath is not None:
            self.host.fastpath.register(
                connection, "quic", hello.payload.conn_id, "server",
                self.host, hello.src, hello.via, reply_path)
        self.host.loop.serve(self.handler(connection),
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
    try:
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
    except BaseException as error:
        # Interrupted (a request watchdog, an aborted session): unbind
        # the port and disarm the hello deadline before giving up.
        socket.close()
        span.set(attempts=attempts, error=type(error).__name__).end("error")
        raise
    if not established:
        socket.close()
        span.set(attempts=attempts, error="HandshakeError").end("error")
        raise HandshakeError(
            f"QUIC connect {host.name} -> {dst}:{dst_port} failed after "
            f"{retries} attempts")
    rtt = max(0.1, loop.now - start)
    span.set(attempts=attempts, rtt_ms=rtt).end()
    connection = QuicConnection(loop, conn_id=conn_id,
                                flow=socket.connect(dst, dst_port, via, path),
                                initial_rtt_ms=rtt, is_client=True)
    if getattr(host, "fastpath", None) is not None:
        host.fastpath.register(connection, "quic", conn_id, "client",
                               host, dst, via, path)
    socket.listen(connection.on_datagram)
    return connection
