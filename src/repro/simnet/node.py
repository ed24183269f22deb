"""Node base class and port plumbing.

A :class:`Node` owns numbered ports; each port is attached to one link.
Subclasses (hosts, legacy routers, SCION border routers) override
:meth:`Node.receive` to implement their forwarding or stack behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.simnet.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.events import EventLoop
    from repro.simnet.link import Link


@dataclass(slots=True)
class Port:
    """One attachment point of a node to a link."""

    ifid: int
    link: "Link"


class Node:
    """A device in the simulated network."""

    #: ``hop_step(packet, ifid, arrival)`` on a node that can name, when
    #: a link puts a packet on the wire toward it, what it will do with
    #: the packet: ``(delay, egress transmit)`` to hand it on ``delay``
    #: ms after ``arrival`` without a receive step of its own, or
    #: ``None`` to receive it. ``None`` here: every packet is received.
    hop_step = None

    def __init__(self, name: str) -> None:
        self.name = name
        self.loop: "EventLoop | None" = None  # set by Network.add_node
        self.ports: dict[int, Port] = {}
        self.packets_received = 0
        self.packets_sent = 0

    # -- wiring (called by Network) ------------------------------------------

    def bind_loop(self, loop: "EventLoop") -> None:
        """Associate the node with the simulation loop."""
        self.loop = loop

    def attach_port(self, ifid: int, link: "Link") -> None:
        """Attach interface ``ifid`` to ``link``."""
        if ifid in self.ports:
            raise SimulationError(f"{self.name}: port {ifid} already attached")
        self.ports[ifid] = Port(ifid=ifid, link=link)

    def next_free_ifid(self) -> int:
        """Smallest unused interface id (used by auto-wiring helpers)."""
        ifid = 1
        while ifid in self.ports:
            ifid += 1
        return ifid

    # -- data path ------------------------------------------------------------

    def send(self, packet: Packet, ifid: int) -> None:
        """Transmit ``packet`` out of interface ``ifid``."""
        port = self.ports.get(ifid)
        if port is None:
            raise SimulationError(f"{self.name}: no port {ifid}")
        if self.loop is None:
            raise SimulationError(f"{self.name}: node not added to a network")
        self.packets_sent += 1
        port.link.transmit(packet, self.name)

    def receive(self, packet: Packet, ifid: int) -> None:
        """Handle an arriving packet. Subclasses override; the base class
        counts and drops."""
        del ifid
        del packet
        self.packets_received += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"
