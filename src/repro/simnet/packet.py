"""Packet model.

A :class:`Packet` is what links carry between nodes. The simulator does not
serialize protocol state to bytes; instead each packet carries a Python
``payload`` object plus an explicit ``size`` in bytes that the link layer
uses for serialization delay and MTU checks. Protocol layers that wrap
other protocols nest their payloads (e.g. a SCION packet payload holds a
UDP datagram whose payload holds a QUIC packet).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

#: Default Ethernet-style MTU used when a link does not override it.
DEFAULT_MTU = 1500

_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """A unit of data in flight.

    Attributes:
        src: source address (layer-specific; string or structured address).
        dst: destination address.
        payload: the carried object (protocol message, nested packet, ...).
        size: wire size in bytes; links charge serialization delay for it.
        protocol: short tag naming the top-most protocol ("ip", "scion",
            "udp", ...) used by nodes to dispatch.
        path: the SCION path in the header (traversal direction); ``None``
            for intra-AS SCION and for every other protocol.
        hop_index: index into ``path.hops`` of the hop the next router
            processes; routers advance it as they forward.
        created_at: simulation time the packet was created (set by sender).
        packet_id: unique id for tracing.
        hops: number of links traversed so far; incremented by links.
    """

    src: Any
    dst: Any
    payload: Any
    size: int
    protocol: str = "raw"
    path: Any = None
    hop_index: int = 0
    created_at: float = 0.0
    packet_id: int = field(default_factory=_packet_ids.__next__)
    hops: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Packet(#{self.packet_id} {self.protocol} "
                f"{self.src}->{self.dst} {self.size}B)")
