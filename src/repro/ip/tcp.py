"""TCP: the legacy baseline transport.

A deliberately honest model of what the paper's "BGP/IP-Only" experiments
ride on: a 1-RTT SYN/SYN-ACK handshake followed by a single reliable
ordered byte stream (the :class:`~repro.transport.reliable.ReliableChannel`
engine), demultiplexed per (client address, client port) at the listener.

Although written for legacy IP, the connection is transport-agnostic and
also runs over SCION datagrams — that is exactly how the paper's HTTP
proxy maps "the TCP data stream into a single bidirectional QUIC stream"
(§5.1); tests use it to cross-check both stacks.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any

from repro.errors import HandshakeError
from repro.internet.host import Datagram, Host, UdpFlow, UdpSocket
from repro.scion.addr import HostAddr
from repro.scion.path import ScionPath
from repro.transport.reliable import AckFrame, ReliableChannel, Segment

#: Per-segment TCP header bytes charged on the wire.
TCP_HEADER_BYTES = 32
#: Wire size of SYN / SYN-ACK datagrams.
HANDSHAKE_BYTES = 44
#: Default handshake retransmission interval and retry budget.
HANDSHAKE_TIMEOUT_MS = 1000.0
HANDSHAKE_RETRIES = 5

_conn_ids = itertools.count(1)


@dataclass(frozen=True)
class Syn:
    """Connection request."""

    conn_id: int


@dataclass(frozen=True)
class SynAck:
    """Connection accepted."""

    conn_id: int


class TcpConnection:
    """An established TCP connection: one bidirectional message stream."""

    __slots__ = ("conn_id", "channel", "fastpath", "_fp_record")

    def __init__(self, loop, flow: UdpFlow, initial_rtt_ms: float,
                 conn_id: int) -> None:
        self.conn_id = conn_id
        self.channel = ReliableChannel(
            loop, transmit=flow.send, header_bytes=TCP_HEADER_BYTES,
            initial_rtt_ms=initial_rtt_ms)
        #: Set by :meth:`repro.simnet.fastpath.FastPath.register` when the
        #: world runs with the hybrid-fidelity fast path enabled.
        self.fastpath = None
        self._fp_record = None

    def send(self, payload: Any, size: int) -> None:
        """Send one application message of ``size`` bytes."""
        if self.fastpath is not None and self.fastpath.try_send(
                self, None, self.channel, payload, size):
            return
        self.channel.send_message(payload, size)

    def recv(self):
        """Event yielding the next in-order application message."""
        return self.channel.recv_message()

    def close(self) -> None:
        """Close our sending direction."""
        if self.fastpath is not None and self.fastpath.defer_close(self.channel):
            return  # close re-issued once the analytic transfer lands
        self.channel.close()

    def fastpath_channel(self, stream_id) -> ReliableChannel:
        """Receiving channel for an analytically-delivered transfer
        (TCP has a single stream; ``stream_id`` is ignored)."""
        return self.channel

    @property
    def srtt_ms(self) -> float:
        """Smoothed RTT estimate of the connection."""
        return self.channel.srtt_ms

    def on_datagram(self, datagram: Datagram) -> None:
        """Feed an incoming datagram's frame into the channel; stray
        handshake duplicates (SYN / SYN-ACK) are ignored."""
        payload = datagram.payload
        kind = type(payload)
        if (kind is Segment or kind is AckFrame
                or not isinstance(payload, (Syn, SynAck))):
            self.channel.on_frame(payload)


class TcpListener:
    """A listening TCP endpoint spawning one handler per connection.

    ``handler`` is a generator function ``handler(conn)`` run as a
    simulation process for each accepted connection. Server responses use
    the same network flavour the client used — for SCION clients, the
    reversed client path (no path lookup on the server, matching how the
    paper's reverse proxy answers).
    """

    def __init__(self, host: Host, port: int,
                 handler: Callable[[TcpConnection], Generator]) -> None:
        self.host = host
        self.port = port
        self.handler = handler
        self.socket: UdpSocket = host.udp_socket(port)
        self.connections: dict[tuple[HostAddr, int], TcpConnection] = {}
        self.accepted = 0
        self.socket.listen(self._on_datagram)

    def close(self) -> None:
        """Stop accepting (established connections keep working until the
        socket closes delivery)."""
        self.socket.close()

    def detach(self) -> None:
        """Let go of the handler in a finished world (see
        :meth:`UdpSocket.detach`)."""
        self.handler = None

    def _on_datagram(self, datagram: Datagram) -> None:
        key = (datagram.src, datagram.src_port)
        if isinstance(datagram.payload, Syn):
            if key not in self.connections:
                self.connections[key] = self._establish(datagram)
                self.accepted += 1
            # (Re-)confirm, covering a lost SYN-ACK.
            self._reply(datagram, SynAck(conn_id=datagram.payload.conn_id))
            return
        connection = self.connections.get(key)
        if connection is not None:
            connection.on_datagram(datagram)

    def _establish(self, syn: Datagram) -> TcpConnection:
        reply_path = syn.path.reverse() if syn.path is not None else None
        flow = self.socket.connect(syn.src, syn.src_port, syn.via, reply_path)
        assert self.host.loop is not None
        connection = TcpConnection(self.host.loop, flow, initial_rtt_ms=50.0,
                                   conn_id=syn.payload.conn_id)
        if self.host.fastpath is not None:
            self.host.fastpath.register(
                connection, "tcp", syn.payload.conn_id, "server",
                self.host, syn.src, syn.via, reply_path)
        self.host.loop.serve(self.handler(connection),
                             name=f"tcp-handler:{self.host.name}:{self.port}")
        return connection

    def _reply(self, datagram: Datagram, frame: Any) -> None:
        reply_path = datagram.path.reverse() if datagram.path is not None else None
        self.socket.send(datagram.src, datagram.src_port, frame,
                         HANDSHAKE_BYTES, via=datagram.via, path=reply_path)


def tcp_connect(host: Host, dst: HostAddr, dst_port: int,
                via: str = "ip", path: ScionPath | None = None,
                timeout_ms: float = HANDSHAKE_TIMEOUT_MS,
                retries: int = HANDSHAKE_RETRIES) -> Generator:
    """Open a TCP connection (simulation process).

    Usage: ``conn = yield from tcp_connect(host, dst, 80)``. Raises
    :class:`HandshakeError` after ``retries`` unanswered SYNs.
    """
    assert host.loop is not None
    loop = host.loop
    socket = host.udp_socket()
    conn_id = next(_conn_ids)
    start = loop.now
    established = False
    try:
        for _attempt in range(retries):
            socket.send(dst, dst_port, Syn(conn_id=conn_id), HANDSHAKE_BYTES,
                        via=via, path=path)
            datagram = yield socket.recv(timeout_ms=timeout_ms)
            if datagram is None:
                continue
            if isinstance(datagram.payload, SynAck) and \
                    datagram.payload.conn_id == conn_id:
                established = True
                break
            # Unexpected frame during handshake (e.g. duplicate): ignore it.
    except BaseException:
        # Interrupted: unbind the port and disarm the SYN deadline.
        socket.close()
        raise
    if not established:
        socket.close()
        raise HandshakeError(
            f"TCP connect {host.name} -> {dst}:{dst_port} failed after "
            f"{retries} attempts")
    rtt = max(0.1, loop.now - start)
    connection = TcpConnection(loop, socket.connect(dst, dst_port, via, path),
                               initial_rtt_ms=rtt, conn_id=conn_id)
    if getattr(host, "fastpath", None) is not None:
        host.fastpath.register(connection, "tcp", conn_id, "client",
                               host, dst, via, path)
    socket.listen(connection.on_datagram)
    return connection
