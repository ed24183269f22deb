"""End hosts with a dual-stack UDP socket API.

A :class:`Host` attaches to its AS's border router and exposes
:class:`UdpSocket` endpoints. Datagrams can travel two ways, mirroring
the machine the paper's HTTP proxy runs on:

* ``via="scion"`` with an explicit :class:`~repro.scion.path.ScionPath`
  (SCION local-AS communication "is based on UDP, [so] SCION-aware
  applications can operate without OS support", §5.1),
* ``via="ip"`` over the BGP-routed legacy Internet.

Receivers see the arriving path, so servers can reply along the reversed
SCION path without any path lookup of their own.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import AddressError, SimulationError, TransportError
from repro.scion.addr import HostAddr
from repro.scion.path import ScionPath
from repro.simnet.node import Node
from repro.simnet.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.scion.daemon import PathDaemon
    from repro.simnet.events import Event

#: Bytes of UDP header charged per datagram.
UDP_HEADER_BYTES = 8
#: Bytes of IPv4 header charged per legacy datagram.
IP_HEADER_BYTES = 20

#: First port handed out by the ephemeral allocator.
EPHEMERAL_PORT_BASE = 32768


@dataclass(frozen=True)
class Datagram:
    """A UDP datagram as seen by sockets.

    ``path`` is the SCION path the datagram travelled (traversal
    direction: src → dst); ``None`` for legacy IP datagrams.
    """

    src: HostAddr
    src_port: int
    dst: HostAddr
    dst_port: int
    payload: Any
    size: int
    via: str  # "scion" | "ip"
    path: ScionPath | None = None


class UdpSocket:
    """A bound UDP endpoint on one host."""

    def __init__(self, host: "Host", port: int) -> None:
        self.host = host
        self.port = port
        self._queue: deque[Datagram] = deque()
        self._waiters: deque["Event"] = deque()
        self.closed = False

    # -- sending ------------------------------------------------------------

    def send(self, dst: HostAddr, dst_port: int, payload: Any, size: int,
             via: str = "ip", path: ScionPath | None = None) -> None:
        """Send one datagram. SCION sends require ``path`` unless the
        destination is in the local AS (empty path)."""
        if self.closed:
            raise TransportError(f"socket {self.host.name}:{self.port} is closed")
        self.host.send_datagram(
            Datagram(src=self.host.addr, src_port=self.port, dst=dst,
                     dst_port=dst_port, payload=payload, size=size,
                     via=via, path=path))

    # -- receiving ------------------------------------------------------------

    def recv(self, timeout_ms: float | None = None) -> "Event":
        """An event yielding the next :class:`Datagram`.

        Use from a simulation process: ``datagram = yield socket.recv()``.
        With ``timeout_ms``, the event yields ``None`` if nothing arrives
        in time (the waiter is removed, so no datagram is consumed by a
        stale wait).
        """
        if self.host.loop is None:
            raise SimulationError("host not attached to a network")
        event = self.host.loop.event()
        if self._queue:
            event.succeed(self._queue.popleft())
            return event
        self._waiters.append(event)
        if timeout_ms is not None:
            self.host.loop.call_later(timeout_ms, self._expire_waiter, event)
        return event

    def _expire_waiter(self, event: "Event") -> None:
        if event.triggered:
            return
        try:
            self._waiters.remove(event)
        except ValueError:
            return
        event.succeed(None)

    def deliver(self, datagram: Datagram) -> None:
        """Called by the host when a datagram arrives for this port."""
        if self.closed:
            return
        if self._waiters:
            self._waiters.popleft().succeed(datagram)
        else:
            self._queue.append(datagram)

    def close(self) -> None:
        """Unbind the socket; queued data is discarded, waiters fail."""
        if self.closed:
            return
        self.closed = True
        self.host.release_port(self.port)
        while self._waiters:
            self._waiters.popleft().fail(
                TransportError(f"socket {self.host.name}:{self.port} closed"))


class Host(Node):
    """An end host attached to its AS router on port 1."""

    ROUTER_IFID = 1

    def __init__(self, name: str, addr: HostAddr) -> None:
        super().__init__(name)
        self.addr = addr
        self.daemon: "PathDaemon | None" = None  # set by the Internet builder
        #: The world's hybrid-fidelity fast-path controller (or None);
        #: set by the Internet builder, consulted at transport connect.
        self.fastpath = None
        self._sockets: dict[int, UdpSocket] = {}
        self._ephemeral = itertools.count(EPHEMERAL_PORT_BASE)
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.undeliverable = 0

    # -- sockets ------------------------------------------------------------

    def udp_socket(self, port: int | None = None) -> UdpSocket:
        """Bind a UDP socket; ``port=None`` picks an ephemeral port."""
        if port is None:
            port = next(self._ephemeral)
            while port in self._sockets:
                port = next(self._ephemeral)
        if port in self._sockets:
            raise AddressError(f"{self.name}: port {port} already bound")
        socket = UdpSocket(self, port)
        self._sockets[port] = socket
        return socket

    def release_port(self, port: int) -> None:
        """Forget a closed socket's binding."""
        self._sockets.pop(port, None)

    # -- data path ------------------------------------------------------------

    def send_datagram(self, datagram: Datagram) -> None:
        """Wrap a datagram in the requested network layer and transmit."""
        self.datagrams_sent += 1
        if datagram.via == "scion":
            self._send_scion(datagram)
        elif datagram.via == "ip":
            self._send_ip(datagram)
        else:
            raise AddressError(f"unknown via {datagram.via!r}")

    def _send_scion(self, datagram: Datagram) -> None:
        path = datagram.path
        if path is None and datagram.dst.isd_as != self.addr.isd_as:
            raise TransportError(
                f"SCION send to remote AS {datagram.dst.isd_as} needs a path")
        header = path.header_bytes() if path is not None else 24
        packet = Packet(
            src=self.addr,
            dst=datagram.dst,
            payload=datagram,
            size=datagram.size + UDP_HEADER_BYTES + header,
            protocol="scion",
            meta={"path": path, "hop_index": 0},
            created_at=self.loop.now if self.loop else 0.0,
        )
        self.send(packet, self.ROUTER_IFID)

    def _send_ip(self, datagram: Datagram) -> None:
        packet = Packet(
            src=self.addr,
            dst=datagram.dst,
            payload=datagram,
            size=datagram.size + UDP_HEADER_BYTES + IP_HEADER_BYTES,
            protocol="ip",
            created_at=self.loop.now if self.loop else 0.0,
        )
        self.send(packet, self.ROUTER_IFID)

    def receive(self, packet: Packet, ifid: int) -> None:
        """Dispatch an arriving packet to the bound socket."""
        del ifid
        self.packets_received += 1
        datagram = packet.payload
        if not isinstance(datagram, Datagram):
            self.undeliverable += 1
            return
        socket = self._sockets.get(datagram.dst_port)
        if socket is None:
            self.undeliverable += 1
            return
        self.datagrams_received += 1
        socket.deliver(datagram)
