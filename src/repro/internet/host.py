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

A transport sends through a :class:`UdpFlow` (:meth:`UdpSocket.connect`):
the destination, the way, the path, the header bytes, the protocol and
the host's uplink are resolved once, so a datagram costs one
:class:`~repro.simnet.packet.Packet` and one ``Datagram`` on the way
out. :meth:`UdpSocket.send` is the same flow, built per call.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.errors import AddressError, SimulationError, TransportError
from repro.scion.addr import HostAddr
from repro.scion.path import ScionPath
from repro.simnet.node import Node
from repro.simnet.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.scion.daemon import PathDaemon
    from repro.simnet.events import Event
    from repro.simnet.link import Link

#: Bytes of UDP header charged per datagram.
UDP_HEADER_BYTES = 8
#: Bytes of IPv4 header charged per legacy datagram.
IP_HEADER_BYTES = 20
#: Bytes of SCION header charged per intra-AS datagram (empty path).
SCION_LOCAL_HEADER_BYTES = 24

#: First port handed out by the ephemeral allocator.
EPHEMERAL_PORT_BASE = 32768


class Datagram(NamedTuple):
    """A UDP datagram as seen by sockets (immutable).

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


#: ``Datagram(...)`` without the generated ``__new__`` frame: a flow
#: builds one per send, field for field in declaration order.
_new_datagram = tuple.__new__


class UdpFlow:
    """One socket's datagrams to one ``(dst, dst_port)`` along one way
    (``via``) and ``path``.

    Everything but the payload and its size is resolved at construction
    (:meth:`UdpSocket.connect`), which raises what a send with these
    arguments would raise: :class:`TransportError` on a closed socket or
    a SCION flow to a remote AS without ``path``, :class:`AddressError`
    for an unknown ``via``. :meth:`send` only checks that the socket is
    still open.
    """

    __slots__ = ("socket", "dst", "dst_port", "via", "path", "_protocol",
                 "_header_path", "_overhead", "_uplink")

    def __init__(self, socket: "UdpSocket", dst: HostAddr, dst_port: int,
                 via: str, path: ScionPath | None) -> None:
        host = socket.host
        if socket.closed:
            raise _closed(socket)
        if via == "scion":
            if path is None and dst.isd_as != host.addr.isd_as:
                raise TransportError(
                    f"SCION send to remote AS {dst.isd_as} needs a path")
            header = (path.header_bytes() if path is not None
                      else SCION_LOCAL_HEADER_BYTES)
            self._header_path = path
        elif via == "ip":
            header = IP_HEADER_BYTES
            self._header_path = None
        else:
            raise AddressError(f"unknown via {via!r}")
        self.socket = socket
        self.dst = dst
        self.dst_port = dst_port
        self.via = via
        #: The path receivers see in the datagram; the packet header
        #: carries it only over SCION.
        self.path = path
        self._protocol = via
        self._overhead = UDP_HEADER_BYTES + header
        #: The host's uplink, or None on a host not wired into a network
        #: (its sends go through Node.send, which raises why).
        self._uplink = host._uplink  # noqa: SLF001 - the host's own wiring

    def send(self, payload: Any, size: int) -> None:
        """Send one datagram of ``size`` payload bytes."""
        socket = self.socket
        if socket.closed:
            raise _closed(socket)
        host = socket.host
        host.datagrams_sent += 1
        addr = host.addr
        datagram = _new_datagram(Datagram, (
            addr, socket.port, self.dst, self.dst_port, payload, size,
            self.via, self.path))
        uplink = self._uplink
        if uplink is None:
            # Not wired into a network: Node.send raises the reason.
            host.send(Packet(addr, self.dst, datagram, size + self._overhead,
                             self._protocol, self._header_path, 0,
                             host.loop.now if host.loop else 0.0),
                      Host.ROUTER_IFID)
            return
        host.packets_sent += 1
        uplink.transmit(Packet(addr, self.dst, datagram,
                               size + self._overhead, self._protocol,
                               self._header_path, 0, host.loop._now),
                        host.name)


def _closed(socket: "UdpSocket") -> TransportError:
    return TransportError(f"socket {socket.host.name}:{socket.port} is closed")


class UdpSocket:
    """A bound UDP endpoint on one host.

    A socket has one consumer at a time: either processes pulling with
    :meth:`recv` (a handshake) or one push-mode reader installed with
    :meth:`listen` (an established transport).
    """

    __slots__ = ("host", "port", "_queue", "_waiters", "_deadlines",
                 "_reader", "_reader_live", "reader_error", "closed")

    def __init__(self, host: "Host", port: int) -> None:
        self.host = host
        self.port = port
        #: Datagrams nobody took yet, receivers waiting for one, and the
        #: armed receive watchdogs (waiter -> loop handle); each None
        #: while empty.
        self._queue: list[Datagram] | None = None
        self._waiters: list["Event"] | None = None
        self._deadlines: dict["Event", int] | None = None
        #: The push-mode reader, and whether it takes datagrams as they
        #: arrive (its first step, which drains the backlog, has run).
        self._reader: Callable[[Datagram], None] | None = None
        self._reader_live = False
        #: What stopped the reader, if its handler raised.
        self.reader_error: Exception | None = None
        self.closed = False

    # -- sending ------------------------------------------------------------

    def connect(self, dst: HostAddr, dst_port: int, via: str = "ip",
                path: ScionPath | None = None) -> UdpFlow:
        """The flow of this socket's datagrams to ``(dst, dst_port)``;
        raises what :class:`UdpFlow` raises."""
        return UdpFlow(self, dst, dst_port, via, path)

    def send(self, dst: HostAddr, dst_port: int, payload: Any, size: int,
             via: str = "ip", path: ScionPath | None = None) -> None:
        """Send one datagram. SCION sends require ``path`` unless the
        destination is in the local AS (empty path)."""
        UdpFlow(self, dst, dst_port, via, path).send(payload, size)

    # -- receiving ------------------------------------------------------------

    def recv(self, timeout_ms: float | None = None) -> "Event":
        """An event yielding the next :class:`Datagram`.

        Use from a simulation process: ``datagram = yield socket.recv()``.
        With ``timeout_ms``, the event yields ``None`` if nothing arrives
        in time (the waiter is removed, so no datagram is consumed by a
        stale wait). A datagram or a close disarms the watchdog, so it
        does not keep the clock running to its deadline. On a closed
        socket, datagrams queued before the close are still returned;
        after them the event fails with :class:`TransportError`.
        """
        if self.host.loop is None:
            raise SimulationError("host not attached to a network")
        if self._reader is not None:
            raise SimulationError(
                f"socket {self.host.name}:{self.port} has a listening reader")
        event = self.host.loop.event()
        queue = self._queue
        if queue:
            event.succeed(queue.pop(0))
            if not queue:
                self._queue = None
            return event
        if self.closed:
            event.fail(_closed(self))
            return event
        if self._waiters is None:
            self._waiters = [event]
        else:
            self._waiters.append(event)
        if timeout_ms is not None:
            handle = self.host.loop.call_later(
                timeout_ms, self._expire_waiter, event)
            if self._deadlines is None:
                self._deadlines = {event: handle}
            else:
                self._deadlines[event] = handle
        return event

    def listen(self, handler: Callable[[Datagram], None]) -> None:
        """Hand every datagram to ``handler`` in the event that delivers it.

        One step is scheduled now; it hands over the datagrams queued
        before it, in arrival order, and from then on each datagram is
        handled as it arrives, at no loop step of its own. A handler that
        raises stops the reader: the exception is kept in
        :attr:`reader_error` and later datagrams stay queued.
        """
        if self.host.loop is None:
            raise SimulationError("host not attached to a network")
        if self._reader is not None or self._waiters:
            raise SimulationError(
                f"socket {self.host.name}:{self.port} already has a reader")
        self._reader = handler
        self.host.loop.call_soon(self._drain)

    def _drain(self) -> None:
        queue = self._queue
        while queue and self._reader is not None:
            datagram = queue.pop(0)
            try:
                self._reader(datagram)
            except Exception as exc:  # noqa: BLE001 - kept on the socket
                self._stop_reader(exc)
        if queue is not None and not queue:
            self._queue = None
        self._reader_live = self._reader is not None

    def _stop_reader(self, error: Exception) -> None:
        self.reader_error = error
        self._reader = None
        self._reader_live = False

    def _expire_waiter(self, event: "Event") -> None:
        self._forget_waiter(event)
        event.succeed(None)

    def _next_waiter(self) -> "Event":
        """Take the oldest waiter and disarm its watchdog."""
        event = self._waiters[0]
        handle = self._forget_waiter(event)
        if handle is not None:
            self.host.loop.cancel_scheduled(handle)
        return event

    def _forget_waiter(self, event: "Event") -> int | None:
        """Drop a waiter; returns its watchdog's handle, if it had one."""
        self._waiters.remove(event)
        if not self._waiters:
            self._waiters = None
        deadlines = self._deadlines
        if deadlines is None:
            return None
        handle = deadlines.pop(event, None)
        if not deadlines:
            self._deadlines = None
        return handle

    def deliver(self, datagram: Datagram) -> None:
        """Called by the host when a datagram arrives for this port."""
        if self.closed:
            return
        if self._reader_live:
            try:
                self._reader(datagram)
            except Exception as exc:  # noqa: BLE001 - kept on the socket
                self._stop_reader(exc)
        elif self._waiters:
            self._next_waiter().succeed(datagram)
        elif self._queue is None:
            self._queue = [datagram]
        else:
            self._queue.append(datagram)

    def close(self) -> None:
        """Unbind the socket: nothing more is delivered and waiters fail.

        Datagrams already queued are kept: a reader whose first step is
        pending still drains them, and a later :meth:`recv` still returns
        them. A live reader stops.
        """
        if self.closed:
            return
        self.closed = True
        self.host.release_port(self.port)
        if self._reader_live:
            self._reader_live = False
            self._reader = None
        while self._waiters:
            self._next_waiter().fail(
                TransportError(f"socket {self.host.name}:{self.port} closed"))

    def detach(self) -> None:
        """Let go of the reader in a finished world (see
        :meth:`repro.internet.build.Internet.close`).

        A reader is a bound method of a connection or a listener that
        sends through this socket, so this edge makes the owner
        reachable from itself. An owner with a ``detach`` (a listener, a
        QUIC connection) lets go of what it holds too.
        """
        reader = self._reader
        self._reader = None
        self._reader_live = False
        detach = getattr(getattr(reader, "__self__", None), "detach", None)
        if detach is not None:
            detach()


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
        #: The link to the AS router, once wired into a network; sends
        #: go straight to its ``transmit``.
        self._uplink: "Link | None" = None
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

    def detach(self) -> None:
        """Let go of every socket, each detached in bind order (see
        :meth:`repro.internet.build.Internet.close`)."""
        sockets, self._sockets = self._sockets, {}
        for socket in sockets.values():
            socket.detach()

    # -- data path ------------------------------------------------------------

    def attach_port(self, ifid: int, link: "Link") -> None:
        super().attach_port(ifid, link)
        if ifid == self.ROUTER_IFID and self.loop is not None:
            self._uplink = link

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
