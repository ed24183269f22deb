"""Dual-stack AS border routers.

One :class:`AsRouter` per AS forwards both kinds of traffic:

* **SCION** packets carry their path in the header; the router checks
  that the current hop names this AS, that the hop field's MAC verifies
  under the AS's forwarding key (dropping forgeries) and that the hop
  field has not expired, and forwards out the hop's egress interface —
  the router holds *no* per-destination state, which is SCION's defining
  data-plane property,
* **IP** packets are forwarded by exact-match destination-AS lookup in
  the BGP-derived forwarding table.

Per packet the router checks the AS match and the hop field's expiry
against the clock. The HMAC is computed once per distinct
``(segment timestamp, hop field)``: the verdict is a pure function of
the router's key and those bytes, so a hop field that verified is
remembered together with its expiry time. Forgeries are never
remembered — each one is re-verified and dropped, so hostile traffic
cannot grow or poison the table.

Transit crossings (external interface in, external interface out) are
charged the AS's internal latency so the data plane matches the latency
metadata the control plane advertises.

A forwarding step that passed every check is remembered too: keyed on
the path object's identity (``None`` for intra-AS SCION), the hop index
and the ingress interface, it holds the earliest expiry of the hops it
crossed, the next hop index, the processing delay and the egress link's
``transmit``. The ingress link asks for the step (:meth:`AsRouter.
hop_step`) as it puts the packet on the wire: a packet that finds it,
unexpired at its arrival time, costs one loop event for the hop, which
runs when the step hands the packet to the egress link — the instant
the full walk's transmit would have run. Forgeries, path errors,
wrong-AS hops, expired packets and worlds built with
``verify_macs=False`` never make a step; they arrive in an event of
their own and take the full walk and its counters. IP forwarding keeps
the same kind of step per destination address object and ingress.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.crypto.mac import verify_hop_mac
from repro.errors import VerificationError
from repro.scion.beacon import HopField
from repro.scion.path import EXP_TIME_UNIT_S, ScionPath
from repro.simnet.node import Node
from repro.simnet.packet import Packet
from repro.topology.isd_as import IsdAs

#: Router processing overhead for non-transit crossings (ms).
PROCESSING_DELAY_MS = 0.01


class AsRouter(Node):
    """The border router (and intra-AS fabric) of one AS."""

    def __init__(self, name: str, isd_as: IsdAs, forwarding_key: bytes,
                 internal_latency_ms: float = 0.2,
                 verify_macs: bool = True) -> None:
        super().__init__(name)
        self.isd_as = isd_as
        self.forwarding_key = forwarding_key
        self.internal_latency_ms = internal_latency_ms
        self.verify_macs = verify_macs
        #: interface ids that lead to other ASes (from the topology).
        self.external_ifids: set[int] = set()
        #: local host name -> host-facing interface id.
        self.host_ports: dict[str, int] = {}
        #: BGP forwarding table: destination AS -> egress interface id.
        self.ip_table: dict[IsdAs, int] = {}
        #: (segment timestamp, hop field) -> expiry (ms) of every hop
        #: field whose MAC verified under ``forwarding_key``.
        self._verified_expiry_ms: dict[tuple[int, HopField], float] = {}
        #: (id(path), hop index, ingress ifid) -> (path, earliest expiry
        #: (ms), next hop index or None to deliver locally, delay, egress
        #: transmit): SCION steps whose every hop verified.
        self._steps: dict[tuple[int, int, int], tuple] = {}
        #: (id(dst), ingress ifid) -> (dst, delay, egress transmit).
        self._ip_steps: dict[tuple[int, int], tuple] = {}
        # drop counters
        self.mac_failures = 0
        self.path_errors = 0
        self.expired_drops = 0
        self.no_route = 0
        self.no_host = 0

    # -- wiring helpers (used by the Internet builder) -------------------------

    def register_host(self, host_name: str, ifid: int) -> None:
        """Record that ``host_name`` hangs off interface ``ifid``."""
        self.host_ports[host_name] = ifid

    # -- forwarding ---------------------------------------------------------------

    def receive(self, packet: Packet, ifid: int) -> None:
        self.packets_received += 1
        protocol = packet.protocol
        if protocol == "scion":
            self._forward_scion(packet, ifid)
        elif protocol == "ip":
            self._forward_ip(packet, ifid)
        # unknown protocols are dropped silently (counted by base class)

    def hop_step(self, packet: Packet, ifid: int, arrival: float
                 ) -> tuple[float, Callable[[Packet, str], None]] | None:
        """The stored step for ``packet`` arriving on ``ifid`` at
        ``arrival``, as ``(delay, egress transmit)``; ``None`` sends the
        packet through :meth:`receive` and the full walk.

        Asked by the ingress link as it puts the packet on the wire, so
        a hit costs the packet one loop event for the hop. Expiry is
        judged at ``arrival``, as the full walk would judge it there.
        """
        protocol = packet.protocol
        if protocol == "scion":
            path = packet.path
            step = self._steps.get((id(path), packet.hop_index, ifid))
            if step is None or step[0] is not path or arrival >= step[1]:
                return None
            next_index = step[2]
            if next_index is None:
                port = self.ports.get(self.host_ports.get(packet.dst.host))
                if port is None:
                    return None
                return PROCESSING_DELAY_MS, port.link.transmit
            packet.hop_index = next_index
            return step[3], step[4]
        if protocol == "ip":
            dst = packet.dst
            step = self._ip_steps.get((id(dst), ifid))
            if step is not None and step[0] is dst:
                return step[1], step[2]
        return None

    # -- SCION ------------------------------------------------------------------

    def _forward_scion(self, packet: Packet, in_ifid: int) -> None:
        """The full walk: match, verify and expiry-check each hop this
        AS owns, then forward or deliver. A walk that passes every check
        leaves its step behind for the packets that follow."""
        path: ScionPath | None = packet.path
        if path is None:
            # Intra-AS SCION traffic: deliver directly to the local host.
            if self.verify_macs:
                self._steps[id(None), packet.hop_index, in_ifid] = (
                    None, math.inf, None, None, None)
            self._deliver_local(packet)
            return
        first_index = hop_index = packet.hop_index
        hops = path.hops
        earliest_ms = math.inf
        while True:
            if hop_index >= len(hops):
                self.path_errors += 1
                return
            hop = hops[hop_index]
            if hop.isd_as != self.isd_as:
                self.path_errors += 1
                return
            expiry_ms = self._verified_expiry_ms.get(
                (path.timestamp, hop.hop_field))
            if expiry_ms is None:
                expiry_ms = self._verify_hop(path.timestamp, hop.hop_field)
                if expiry_ms is None:
                    self.mac_failures += 1
                    return
            if self.loop.now >= expiry_ms:
                # SCION routers drop packets on expired paths.
                self.expired_drops += 1
                return
            earliest_ms = min(earliest_ms, expiry_ms)
            if hop.egress != 0:
                packet.hop_index = hop_index + 1
                delay = (self.internal_latency_ms
                         if in_ifid in self.external_ifids
                         else PROCESSING_DELAY_MS)
                transmit = self._schedule(delay, packet, hop.egress)
                if transmit is not None and self.verify_macs:
                    self._steps[id(path), first_index, in_ifid] = (
                        path, earliest_ms, hop_index + 1, delay, transmit)
                return
            next_index = hop_index + 1
            if (next_index < len(hops)
                    and hops[next_index].isd_as == self.isd_as):
                hop_index = next_index  # segment crossover, keep processing
                continue
            if self.verify_macs:
                self._steps[id(path), first_index, in_ifid] = (
                    path, earliest_ms, None, None, None)
            self._deliver_local(packet)
            return

    def _verify_hop(self, timestamp: int, hop_field: HopField) -> float | None:
        """First sight of a hop field: its expiry time (ms), or ``None``
        for a forgery. Only a field that verified is remembered."""
        expiry_ms = (timestamp
                     + (hop_field.exp_time + 1) * EXP_TIME_UNIT_S) * 1000.0
        if self.verify_macs:
            try:
                verify_hop_mac(self.forwarding_key, timestamp,
                               hop_field.exp_time, hop_field.ingress,
                               hop_field.egress, hop_field.mac,
                               hop_field.chain)
            except VerificationError:
                return None
            self._verified_expiry_ms[timestamp, hop_field] = expiry_ms
        return expiry_ms

    # -- legacy IP -----------------------------------------------------------------

    def _forward_ip(self, packet: Packet, in_ifid: int) -> None:
        dst = packet.dst
        if dst.isd_as == self.isd_as:
            delay = PROCESSING_DELAY_MS
            transmit = self._deliver_local(packet)
        else:
            egress = self.ip_table.get(dst.isd_as)
            if egress is None:
                self.no_route += 1
                return
            delay = (self.internal_latency_ms
                     if in_ifid in self.external_ifids
                     else PROCESSING_DELAY_MS)
            transmit = self._schedule(delay, packet, egress)
        if transmit is not None and self.verify_macs:
            self._ip_steps[id(dst), in_ifid] = (dst, delay, transmit)

    # -- helpers ------------------------------------------------------------------

    def _deliver_local(self, packet: Packet
                       ) -> Callable[[Packet, str], None] | None:
        ifid = self.host_ports.get(packet.dst.host)
        if ifid is None:
            self.no_host += 1
            return None
        return self._schedule(PROCESSING_DELAY_MS, packet, ifid)

    def _schedule(self, delay: float, packet: Packet,
                  ifid: int) -> Callable[[Packet, str], None] | None:
        """Put ``packet`` on interface ``ifid``'s link after ``delay``.

        Returns the link's ``transmit`` for a step to keep, or ``None``
        for a missing port, whose packet goes through :meth:`Node.send`
        so it raises the canonical :class:`SimulationError` when due.
        """
        port = self.ports.get(ifid)
        if port is None:
            self.loop.call_later(delay, self.send, packet, ifid)
            return None
        self.packets_sent += 1
        transmit = port.link.transmit
        self.loop.call_later(delay, transmit, packet, self.name)
        return transmit
