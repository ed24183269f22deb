"""Path-construction beacon building blocks.

During beaconing, each AS appends an :class:`AsEntry` to the beacon it
received, signs the accumulated content, and forwards it (paper §2: the
"path-segment construction beacons sent from AS to AS iteratively
accumulate information during construction"). Each entry carries:

* the hop field for the data plane (ingress/egress interface ids and a
  chained MAC, verified by border routers on every packet),
* a :class:`StaticInfo` extension with the metadata the paper's path
  policies consume — latency, bandwidth, MTU, geography, carbon
  intensity, ESG rating and price,
* a chained control-plane signature binding the entry to everything that
  came before it, so a segment cannot be truncated or spliced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.graph import AsInfo, InterAsLink
from repro.topology.isd_as import IsdAs


@dataclass(frozen=True)
class StaticInfo:
    """Metadata one AS contributes about itself and its egress link.

    ``latency_inter_ms``, ``bandwidth_mbps``, ``link_mtu``, ``loss_rate``
    and ``jitter_ms`` describe the link toward the *next* AS in beaconing
    direction (zero/None on the final entry of a segment); the remaining
    fields describe the AS itself.
    """

    latency_intra_ms: float = 0.0
    latency_inter_ms: float = 0.0
    bandwidth_mbps: float = 0.0
    link_mtu: int = 0
    loss_rate: float = 0.0
    jitter_ms: float = 0.0
    geo: tuple[float, float] | None = None
    region: str = ""
    co2_g_per_gb: float = 0.0
    esg_rating: float = 0.0
    price_per_gb: float = 0.0

    @classmethod
    def for_hop(cls, as_info: AsInfo,
                egress_link: InterAsLink | None) -> "StaticInfo":
        """Build the static info an AS attaches for a given egress link."""
        if egress_link is None:
            return cls(
                latency_intra_ms=as_info.internal_latency_ms,
                geo=as_info.geo,
                region=as_info.region,
                co2_g_per_gb=as_info.co2_g_per_gb,
                esg_rating=as_info.esg_rating,
                price_per_gb=as_info.price_per_gb,
            )
        return cls(
            latency_intra_ms=as_info.internal_latency_ms,
            latency_inter_ms=egress_link.latency_ms,
            bandwidth_mbps=egress_link.bandwidth_mbps,
            link_mtu=egress_link.mtu,
            loss_rate=egress_link.loss_rate,
            jitter_ms=egress_link.jitter_ms,
            geo=as_info.geo,
            region=as_info.region,
            co2_g_per_gb=as_info.co2_g_per_gb,
            esg_rating=as_info.esg_rating,
            price_per_gb=as_info.price_per_gb,
        )

    def serialize(self) -> str:
        """Canonical text form included in the signed payload."""
        geo = f"{self.geo[0]:.4f},{self.geo[1]:.4f}" if self.geo else "-"
        return (f"si({self.latency_intra_ms:.3f};{self.latency_inter_ms:.3f};"
                f"{self.bandwidth_mbps:.1f};{self.link_mtu};{self.loss_rate:.5f};"
                f"{self.jitter_ms:.3f};{geo};{self.region};"
                f"{self.co2_g_per_gb:.2f};{self.esg_rating:.3f};"
                f"{self.price_per_gb:.3f})")


@dataclass(frozen=True)
class HopField:
    """The data-plane hop field an AS contributes.

    ``chain`` is the MAC of the previous hop field in construction
    direction (empty for the first hop); storing it in the hop field lets
    border routers verify the MAC statelessly in either traversal
    direction.
    """

    ingress: int
    egress: int
    exp_time: int
    mac: bytes
    chain: bytes = b""

    def serialize(self) -> str:
        """Canonical text form included in the signed payload."""
        return (f"hf({self.ingress};{self.egress};{self.exp_time};"
                f"{self.mac.hex()};{self.chain.hex()})")


@dataclass(frozen=True)
class AsEntry:
    """One AS's signed contribution to a beacon/segment."""

    isd_as: IsdAs
    ingress_ifid: int  # interface the beacon arrived on (0 at origin)
    egress_ifid: int   # interface the beacon leaves on (0 at segment end)
    as_mtu: int
    hop_field: HopField
    static_info: StaticInfo
    signature: int = 0

    def signed_payload(self, previous_digest: str) -> bytes:
        """The byte string this entry's signature covers.

        ``previous_digest`` chains the entry to all earlier entries of the
        segment, preventing truncation or splicing attacks.
        """
        return (f"asentry|{previous_digest}|{self.isd_as}|{self.ingress_ifid}|"
                f"{self.egress_ifid}|{self.as_mtu}|{self.hop_field.serialize()}|"
                f"{self.static_info.serialize()}").encode()

    def serialize(self) -> str:
        """Canonical text form used for digests of preceding entries."""
        return (f"e({self.isd_as};{self.ingress_ifid};{self.egress_ifid};"
                f"{self.as_mtu};{self.hop_field.serialize()};"
                f"{self.static_info.serialize()};{self.signature:x})")
