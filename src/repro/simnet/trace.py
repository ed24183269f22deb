"""Packet tracing.

A :class:`PacketTrace` records link-level events (send / recv / drops) so
tests can assert on forwarding behaviour and experiments can report path
usage statistics — the paper's §4 mentions feeding "statistics on path
usage and performance" back to the user.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One recorded link event."""

    time: float
    link: str
    event: str  # "send", "recv", "drop-loss", "drop-mtu"
    packet_id: int
    protocol: str
    src: Any
    dst: Any
    size: int


class PacketTrace:
    """Bounded record of link events.

    Tracing is opt-in per network (it costs memory); experiments enable it
    when they need per-path accounting. ``capacity`` bounds the memory: a
    full trace drops its *oldest* entry for each new one (ring-buffer
    semantics — the recent past is what post-mortems need) and counts the
    evictions in :attr:`dropped_entries`. Entries are kept in the order
    written, which is not quite time order: a ``recv`` at a router that
    forwards on a stored step carries the arrival time but is written
    when the router hands the packet on.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self.entries: deque[TraceEntry] = deque(maxlen=capacity)
        self.capacity = capacity
        #: Entries evicted to keep the trace within ``capacity``.
        self.dropped_entries = 0

    def record(self, time: float, link: str, event: str, packet: Any) -> None:
        """Record one event, evicting the oldest when at capacity."""
        if (self.capacity is not None
                and len(self.entries) == self.capacity):
            self.dropped_entries += 1
        self.entries.append(TraceEntry(
            time=time,
            link=link,
            event=event,
            packet_id=packet.packet_id,
            protocol=packet.protocol,
            src=packet.src,
            dst=packet.dst,
            size=packet.size,
        ))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def events(self, kind: str) -> list[TraceEntry]:
        """All entries of the given event kind."""
        return [entry for entry in self.entries if entry.event == kind]

    def drops(self) -> list[TraceEntry]:
        """All dropped-packet entries (loss and MTU)."""
        return [entry for entry in self.entries if entry.event.startswith("drop")]

    def packets_on_link(self, link_name: str) -> int:
        """Number of send events observed on ``link_name``."""
        return sum(1 for entry in self.entries
                   if entry.link == link_name and entry.event == "send")
