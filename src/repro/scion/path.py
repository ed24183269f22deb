"""End-to-end SCION forwarding paths.

A :class:`ScionPath` is what the path daemon hands to applications and
what travels in packet headers: an ordered list of :class:`PathHop`
processing steps (one or two per AS — two at segment-crossover core
ASes), each carrying the hop field the border router verifies, plus the
:class:`PathMetadata` aggregated from the beacons' static-info extensions.

The metadata is exactly the information the paper's path policies operate
on (§4.1): latency, bandwidth, MTU, traversed ISDs/ASes, geography,
carbon footprint, ESG rating, and price.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass

from repro.scion.beacon import HopField
from repro.topology.isd_as import IsdAs

#: SCION common + address header estimate in bytes.
BASE_HEADER_BYTES = 36
#: Per-hop-field bytes in the path header.
HOP_FIELD_BYTES = 12
#: Seconds of validity per hop-field exp-time unit (SCION: 24 h / 256).
EXP_TIME_UNIT_S = 24 * 3600 / 256


@dataclass(frozen=True)
class PathHop:
    """One processing step at one AS.

    ``ingress``/``egress`` are in *traversal* direction (0 at path ends
    and at segment crossovers); ``hop_field`` stores the interface pair in
    beaconing direction together with the MAC the router verifies.
    """

    isd_as: IsdAs
    ingress: int
    egress: int
    hop_field: HopField


@dataclass(frozen=True)
class PathMetadata:
    """Aggregated path properties, computed from beacon static info.

    Attributes:
        latency_ms: one-way latency estimate (inter-AS links plus intra-AS
            crossings).
        bandwidth_mbps: bottleneck link bandwidth (0 when unknown).
        mtu: end-to-end path MTU.
        loss_rate: combined independent loss across links.
        jitter_ms: sum of per-link jitter bounds.
        hop_count: number of AS-level hops (distinct AS traversals).
        ases: traversed ASes in order (crossover cores listed once).
        isds: sorted distinct ISDs on the path.
        regions: distinct AS regions on the path.
        co2_g_per_gb: summed carbon intensity of traversed ASes.
        esg_min: worst ESG rating among traversed ASes.
        price_per_gb: summed transit price of traversed ASes.
    """

    latency_ms: float
    bandwidth_mbps: float
    mtu: int
    loss_rate: float
    jitter_ms: float
    hop_count: int
    ases: tuple[IsdAs, ...]
    isds: tuple[int, ...]
    regions: tuple[str, ...]
    co2_g_per_gb: float
    esg_min: float
    price_per_gb: float


@dataclass(frozen=True)
class ScionPath:
    """A complete forwarding path with metadata."""

    hops: tuple[PathHop, ...]
    timestamp: int
    metadata: PathMetadata

    @property
    def src_as(self) -> IsdAs:
        """The AS the path starts in."""
        return self.hops[0].isd_as

    @property
    def dst_as(self) -> IsdAs:
        """The AS the path ends in."""
        return self.hops[-1].isd_as

    def ases(self) -> tuple[IsdAs, ...]:
        """Traversed ASes in order, crossover duplicates collapsed."""
        return self.metadata.ases

    def interfaces(self) -> list[tuple[IsdAs, int]]:
        """(AS, interface) pairs in traversal order, for PPL matching."""
        pairs: list[tuple[IsdAs, int]] = []
        for hop in self.hops:
            if hop.ingress:
                pairs.append((hop.isd_as, hop.ingress))
            if hop.egress:
                pairs.append((hop.isd_as, hop.egress))
        return pairs

    def interface_set(self) -> frozenset[tuple[IsdAs, int]]:
        """The traversed interfaces as a set, for revocation matching.

        Memoized: revocation filtering intersects this against the
        active revoked set on every combination and cached-answer
        check, so the set is built once per path object.
        """
        cached = getattr(self, "_interface_set", None)
        if cached is not None:
            return cached
        pairs = frozenset(self.interfaces())
        object.__setattr__(self, "_interface_set", pairs)
        return pairs

    def fingerprint(self) -> str:
        """Stable identifier derived from the interface sequence.

        Memoized: the HTTP client keys its connection pools on it per
        request, so the SHA-256 is computed once per path object.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        text = "|".join(f"{isd_as}#{ifid}" for isd_as, ifid in self.interfaces())
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    def header_bytes(self) -> int:
        """Approximate SCION header size for serialization-delay
        accounting."""
        return BASE_HEADER_BYTES + HOP_FIELD_BYTES * len(self.hops)

    def expiry_ms(self) -> float:
        """When the path expires, in simulation milliseconds.

        A path is valid until its *earliest*-expiring hop field:
        ``timestamp + (exp_time + 1) × 337.5 s`` (SCION's relative
        exp-time encoding). ``timestamp`` is interpreted as simulation
        seconds.
        """
        earliest = min(hop.hop_field.exp_time for hop in self.hops)
        return (self.timestamp + (earliest + 1) * EXP_TIME_UNIT_S) * 1000.0

    def is_expired(self, now_ms: float) -> bool:
        """True once the path's validity window has passed."""
        return now_ms >= self.expiry_ms()

    def reverse(self) -> "ScionPath":
        """The same path in the opposite direction (for responses).

        Memoized: the reversed path (hops plus rebuilt metadata) is
        constructed once and cached on the instance, and the reversed
        path's own ``reverse()`` is pre-wired back to ``self`` —
        response traffic that reverses per packet hits the cache instead
        of rebuilding a full :class:`PathMetadata` each time, and
        reverse-of-reverse is the identical object. The link back is
        weak, so the pair is no reference cycle.
        """
        cached = getattr(self, "_reversed", None)
        if type(cached) is weakref.ref:
            cached = cached()
        if cached is not None:
            return cached
        reversed_path = self._build_reverse()
        # frozen dataclass: bypass the immutability guard for the cache
        # slot only. The cached object is derived state, not identity —
        # equality and hashing still use the declared fields.
        object.__setattr__(reversed_path, "_reversed", weakref.ref(self))
        object.__setattr__(self, "_reversed", reversed_path)
        return reversed_path

    def _build_reverse(self) -> "ScionPath":
        """Construct the reversed path (uncached; tests count calls)."""
        reversed_hops = tuple(
            PathHop(isd_as=hop.isd_as, ingress=hop.egress, egress=hop.ingress,
                    hop_field=hop.hop_field)
            for hop in reversed(self.hops))
        reversed_ases = tuple(reversed(self.metadata.ases))
        metadata = PathMetadata(
            latency_ms=self.metadata.latency_ms,
            bandwidth_mbps=self.metadata.bandwidth_mbps,
            mtu=self.metadata.mtu,
            loss_rate=self.metadata.loss_rate,
            jitter_ms=self.metadata.jitter_ms,
            hop_count=self.metadata.hop_count,
            ases=reversed_ases,
            isds=self.metadata.isds,
            regions=self.metadata.regions,
            co2_g_per_gb=self.metadata.co2_g_per_gb,
            esg_min=self.metadata.esg_min,
            price_per_gb=self.metadata.price_per_gb,
        )
        return ScionPath(hops=reversed_hops, timestamp=self.timestamp,
                         metadata=metadata)

    def summary(self) -> str:
        """Human-readable one-line description (used in stats feedback).

        Memoized like :meth:`fingerprint`: the proxy records it on every
        successful SCION fetch.
        """
        cached = getattr(self, "_summary", None)
        if cached is not None:
            return cached
        chain = " > ".join(str(isd_as) for isd_as in self.metadata.ases)
        text = (f"[{chain}] lat={self.metadata.latency_ms:.1f}ms "
                f"bw={self.metadata.bandwidth_mbps:.0f}Mbps "
                f"mtu={self.metadata.mtu} co2={self.metadata.co2_g_per_gb:.0f}")
        object.__setattr__(self, "_summary", text)
        return text

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ScionPath({self.summary()})"
