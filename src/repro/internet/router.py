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
"""

from __future__ import annotations

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
        if packet.protocol == "scion":
            self._forward_scion(packet, ifid)
        elif packet.protocol == "ip":
            self._forward_ip(packet, ifid)
        # unknown protocols are dropped silently (counted by base class)

    # -- SCION ------------------------------------------------------------------

    def _forward_scion(self, packet: Packet, in_ifid: int) -> None:
        path: ScionPath | None = packet.meta.get("path")
        if path is None:
            # Intra-AS SCION traffic: deliver directly to the local host.
            self._deliver_local(packet)
            return
        hop_index = packet.meta.get("hop_index", 0)
        hops = path.hops
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
            if hop.egress != 0:
                packet.meta["hop_index"] = hop_index + 1
                delay = (self.internal_latency_ms
                         if in_ifid in self.external_ifids
                         else PROCESSING_DELAY_MS)
                self.loop.call_later(delay, self.send, packet, hop.egress)
                return
            next_index = hop_index + 1
            if (next_index < len(hops)
                    and hops[next_index].isd_as == self.isd_as):
                hop_index = next_index  # segment crossover, keep processing
                continue
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
            self._deliver_local(packet)
            return
        egress = self.ip_table.get(dst.isd_as)
        if egress is None:
            self.no_route += 1
            return
        delay = (self.internal_latency_ms if in_ifid in self.external_ifids
                 else PROCESSING_DELAY_MS)
        self.loop.call_later(delay, self.send, packet, egress)

    # -- helpers ------------------------------------------------------------------

    def _deliver_local(self, packet: Packet) -> None:
        ifid = self.host_ports.get(packet.dst.host)
        if ifid is None:
            self.no_host += 1
            return
        self.loop.call_later(PROCESSING_DELAY_MS, self.send, packet, ifid)
