"""Point-to-point link model.

A link connects two node ports and charges each packet:

* **serialization delay** — ``size / bandwidth`` (zero on infinite-bandwidth
  links, used for the paper's loopback local setup),
* **queueing delay** — packets serialize FIFO per direction; a packet must
  wait until the transmitter is free,
* **propagation delay** — fixed one-way latency plus optional uniform
  jitter,
* **loss** — each packet is dropped independently with ``loss_rate``.

Packets larger than the MTU are dropped (and recorded in the trace), which
is how path-MTU effects become observable to upper layers.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.simnet.packet import DEFAULT_MTU, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.events import EventLoop
    from repro.simnet.node import Node
    from repro.simnet.trace import PacketTrace


@dataclass(frozen=True, slots=True)
class LinkConfig:
    """Physical characteristics of a link.

    Attributes:
        latency_ms: one-way propagation delay.
        bandwidth_mbps: serialization rate; <= 0 means infinite (loopback).
        jitter_ms: maximum extra uniform random delay per packet.
        loss_rate: independent drop probability in [0, 1].
        mtu: maximum packet size in bytes.
    """

    latency_ms: float = 1.0
    bandwidth_mbps: float = 0.0
    jitter_ms: float = 0.0
    loss_rate: float = 0.0
    mtu: int = DEFAULT_MTU

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise SimulationError("link latency must be >= 0")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise SimulationError("loss_rate must be within [0, 1]")
        if self.jitter_ms < 0:
            raise SimulationError("jitter must be >= 0")
        if self.mtu <= 0:
            raise SimulationError("mtu must be positive")


class Link:
    """A bidirectional point-to-point link between two node ports."""

    def __init__(self, loop: "EventLoop", rng: random.Random,
                 a: "Node", a_port: int, b: "Node", b_port: int,
                 config: LinkConfig, name: str = "",
                 trace: "PacketTrace | None" = None) -> None:
        self.loop = loop
        self.rng = rng
        self.config = config
        self.name = name or f"{a.name}:{a_port}<->{b.name}:{b_port}"
        self.trace = trace
        #: Administrative state: a downed link silently drops everything
        #: (fiber cut / interface down), letting experiments inject
        #: failures mid-run.
        self._up = True
        #: Dynamic fault hooks (see :mod:`repro.simnet.faults`): additive
        #: loss probability, one-way latency and jitter applied on top of
        #: the static :class:`LinkConfig`. Zero means no active fault; the
        #: RNG draw pattern is unchanged while all three stay zero, so
        #: fault-free runs consume the seed stream exactly as before.
        self._extra_loss_rate = 0.0
        self._extra_latency_ms = 0.0
        self._extra_jitter_ms = 0.0
        #: Called with ``self`` whenever up/extra_* change value — the
        #: fast path (see :mod:`repro.simnet.fastpath`) subscribes here to
        #: revoke analytic eligibility the instant a fault hook fires.
        self.watcher = None
        # Receiver per sender, precomputed: transmit() runs per packet.
        self._peer_of = {a.name: (b, b_port, b.hop_step),
                         b.name: (a, a_port, a.hop_step)}
        # Transmitter-free times, one per direction, keyed by sender name.
        # Packets queue FIFO on this clock; the fast path reads it to
        # judge contention and stamps its analytic bursts onto it.
        self._tx_free_at = {a.name: 0.0, b.name: 0.0}
        #: Packets currently on the wire (sent, not yet delivered,
        #: propagation included; a merged hop also counts the router's
        #: processing delay) — read by the ``link_inflight`` /
        #: ``as_link_inflight`` gauges only; it decides nothing.
        self.inflight = 0
        # Counters for stats/feedback (paper §4: per-path usage statistics).
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_sent = 0

    # -- dynamic state (notifying properties) --------------------------------
    # The setters keep plain-attribute call sites working (faults.py,
    # set_link_state) while notifying the watcher on real transitions, so
    # in-flight fast-path transfers can be demoted live.

    @property
    def up(self) -> bool:
        """Administrative link state."""
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        if value != self._up:
            self._up = value
            if self.watcher is not None:
                self.watcher(self)

    @property
    def extra_loss_rate(self) -> float:
        """Additive fault-injected loss probability."""
        return self._extra_loss_rate

    @extra_loss_rate.setter
    def extra_loss_rate(self, value: float) -> None:
        if value != self._extra_loss_rate:
            self._extra_loss_rate = value
            if self.watcher is not None:
                self.watcher(self)

    @property
    def extra_latency_ms(self) -> float:
        """Additive fault-injected one-way latency."""
        return self._extra_latency_ms

    @extra_latency_ms.setter
    def extra_latency_ms(self, value: float) -> None:
        if value != self._extra_latency_ms:
            self._extra_latency_ms = value
            if self.watcher is not None:
                self.watcher(self)

    @property
    def extra_jitter_ms(self) -> float:
        """Additive fault-injected jitter bound."""
        return self._extra_jitter_ms

    @extra_jitter_ms.setter
    def extra_jitter_ms(self, value: float) -> None:
        if value != self._extra_jitter_ms:
            self._extra_jitter_ms = value
            if self.watcher is not None:
                self.watcher(self)

    def peer_of(self, node_name: str) -> "Node":
        """The node on the other end of the link from ``node_name``."""
        peer = self._peer_of.get(node_name)
        if peer is None:
            raise SimulationError(
                f"{node_name} is not attached to link {self.name}")
        return peer[0]

    def peer_port_of(self, node_name: str) -> int:
        """The interface id at the *far* end, seen from ``node_name``."""
        peer = self._peer_of.get(node_name)
        if peer is None:
            raise SimulationError(
                f"{node_name} is not attached to link {self.name}")
        return peer[1]

    def detach(self) -> None:
        """Let go of both endpoints and the watcher in a finished world
        (see :meth:`repro.internet.build.Internet.close`): the link
        carries nothing more, and its counters stay readable."""
        self._peer_of = {}
        self.watcher = None

    def busy_until(self, sender_name: str) -> float:
        """When the transmitter in ``sender_name``'s direction frees up.

        In the past (or 0.0) when the direction is idle; on
        infinite-bandwidth links serialization is instant so this never
        exceeds the last send time.
        """
        return self._tx_free_at.get(sender_name, 0.0)

    def transmit(self, packet: Packet, sender_name: str) -> None:
        """Send ``packet`` from the named endpoint toward the other one."""
        peer = self._peer_of.get(sender_name)
        if peer is None:
            raise SimulationError(
                f"{sender_name} is not attached to link {self.name}")
        receiver, receiver_port, hop_step = peer
        cfg = self.config

        if not self._up:
            self.packets_dropped += 1
            self._record("drop-down", packet)
            return
        if packet.size > cfg.mtu:
            self.packets_dropped += 1
            self._record("drop-mtu", packet)
            return
        loss_rate = cfg.loss_rate + self._extra_loss_rate
        if loss_rate > 0.0 and self.rng.random() < loss_rate:
            self.packets_dropped += 1
            self._record("drop-loss", packet)
            return

        # Per-packet path, so inline: FIFO start, then size / bytes-per-ms
        # (125 bytes/ms per Mbps; <= 0 means infinite, serializing instantly).
        loop = self.loop
        now = loop._now
        free_at = self._tx_free_at[sender_name]
        tx_done = free_at if free_at > now else now
        if cfg.bandwidth_mbps > 0:
            tx_done += packet.size / (cfg.bandwidth_mbps * 125.0)
        self._tx_free_at[sender_name] = tx_done
        jitter_bound = cfg.jitter_ms + self._extra_jitter_ms
        # ``bound * random()`` is ``uniform(0.0, bound)`` by that method's
        # definition: the same draw and the same float, one frame fewer.
        jitter = jitter_bound * self.rng.random() if jitter_bound > 0 else 0.0
        arrival = tx_done + cfg.latency_ms + self._extra_latency_ms + jitter

        self.packets_sent += 1
        self.bytes_sent += packet.size
        self.inflight += 1
        if self.trace is not None:
            self._record("send", packet)
        packet.hops += 1
        # The one heap entry, pushed as EventLoop.call_at would push it
        # (``arrival`` is never in the past), without its frame.
        if hop_step is not None:
            step = hop_step(packet, receiver_port, arrival)
            if step is not None:
                delay, egress = step
                heappush(loop._queue, (arrival + delay, loop._sequence,
                                       self._hop, (receiver, egress, packet,
                                                   arrival)))
                loop._sequence += 1
                return
        heappush(loop._queue, (arrival, loop._sequence, self._deliver,
                               (receiver, receiver_port, packet)))
        loop._sequence += 1

    def _deliver(self, receiver: "Node", port: int, packet: Packet) -> None:
        self.inflight -= 1
        if self.trace is not None:
            self._record("recv", packet)
        receiver.receive(packet, port)

    def _hop(self, receiver: "Node", egress: Callable[[Packet, str], None],
             packet: Packet, arrival: float) -> None:
        """Arrival and the receiver's forwarding step as one event, run
        when the step hands the packet to its ``egress`` transmit."""
        self.inflight -= 1
        if self.trace is not None:
            self.trace.record(arrival, self.name, "recv", packet)
        receiver.packets_received += 1
        receiver.packets_sent += 1
        egress(packet, receiver.name)

    def _record(self, event: str, packet: Packet) -> None:
        if self.trace is not None:
            self.trace.record(self.loop.now, self.name, event, packet)
