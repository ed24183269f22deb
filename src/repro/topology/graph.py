"""Annotated AS-level topology graph.

The :class:`AsTopology` records every AS (with its ISD membership, core
status, and static metadata) and every inter-AS link (with its kind,
latency, bandwidth, MTU and SCION interface ids). The SCION beaconing
service, the BGP route computation, and the simnet instantiation all read
from this single source of truth, so control plane and data plane can
never disagree about the physical network.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import TopologyError
from repro.simnet.packet import DEFAULT_MTU
from repro.topology.isd_as import IsdAs

class LinkKind(enum.Enum):
    """Relationship of an inter-AS link.

    CORE links connect core ASes (possibly across ISDs); PARENT links go
    from a provider (parent) to a customer (child) AS; PEER links connect
    non-core ASes laterally. The kinds drive both SCION beaconing
    (beacons flow core->core and parent->child) and the valley-free BGP
    baseline.
    """

    CORE = "core"
    PARENT = "parent"
    PEER = "peer"


@dataclass
class AsInfo:
    """Static properties of one AS.

    The optional metadata fields mirror the path decorations the paper
    lists in §1/§4: geographic location, carbon intensity, power
    efficiency, and an ESG ("ethics") rating, plus per-AS pricing used by
    the economics properties in Table 1.
    """

    isd_as: IsdAs
    core: bool = False
    mtu: int = DEFAULT_MTU
    internal_latency_ms: float = 0.2
    geo: tuple[float, float] | None = None  # (latitude, longitude)
    region: str = ""
    co2_g_per_gb: float = 50.0
    esg_rating: float = 0.5  # 0 (worst) .. 1 (best)
    price_per_gb: float = 1.0
    allied: bool = False

    @property
    def isd(self) -> int:
        """The AS's isolation domain."""
        return self.isd_as.isd


@dataclass(frozen=True)
class InterAsLink:
    """One physical link between two ASes.

    For PARENT links, ``a`` is the parent (provider) and ``b`` the child
    (customer). Interface ids are unique per AS and become both the SCION
    hop-field ingress/egress ids and the simnet router port numbers.
    """

    link_id: int
    a: IsdAs
    a_ifid: int
    b: IsdAs
    b_ifid: int
    kind: LinkKind
    latency_ms: float = 5.0
    bandwidth_mbps: float = 1000.0
    mtu: int = DEFAULT_MTU
    loss_rate: float = 0.0
    jitter_ms: float = 0.0

    def other(self, isd_as: IsdAs) -> IsdAs:
        """The AS on the far side of the link from ``isd_as``."""
        if isd_as == self.a:
            return self.b
        if isd_as == self.b:
            return self.a
        raise TopologyError(f"{isd_as} not on link {self.link_id}")

    def ifid_of(self, isd_as: IsdAs) -> int:
        """The interface id the link occupies on ``isd_as``."""
        if isd_as == self.a:
            return self.a_ifid
        if isd_as == self.b:
            return self.b_ifid
        raise TopologyError(f"{isd_as} not on link {self.link_id}")


@dataclass
class _AsRecord:
    info: AsInfo
    links: list[InterAsLink] = field(default_factory=list)
    next_ifid: int = 1


class AsTopology:
    """The AS-level multigraph with per-AS and per-link annotations."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._ases: dict[IsdAs, _AsRecord] = {}
        self._links: list[InterAsLink] = []
        self._link_ids = itertools.count(1)

    # -- construction ---------------------------------------------------------

    def add_as(self, isd_as: IsdAs | str, **attrs) -> AsInfo:
        """Register an AS. ``attrs`` populate :class:`AsInfo` fields."""
        identifier = isd_as if isinstance(isd_as, IsdAs) else IsdAs.parse(isd_as)
        if identifier.is_wildcard:
            raise TopologyError(f"cannot register wildcard AS {identifier}")
        if identifier in self._ases:
            raise TopologyError(f"duplicate AS {identifier}")
        info = AsInfo(isd_as=identifier, **attrs)
        self._ases[identifier] = _AsRecord(info=info)
        return info

    def add_link(self, a: IsdAs | str, b: IsdAs | str, kind: LinkKind,
                 **attrs) -> InterAsLink:
        """Connect two registered ASes.

        For ``LinkKind.PARENT``, ``a`` is the provider. Link attributes
        (``latency_ms``, ``bandwidth_mbps``, ``mtu``, ``loss_rate``,
        ``jitter_ms``) come from ``attrs``.
        """
        as_a = self._record(a)
        as_b = self._record(b)
        if as_a.info.isd_as == as_b.info.isd_as:
            raise TopologyError(f"self link on {as_a.info.isd_as}")
        self._validate_link_kind(as_a.info, as_b.info, kind)
        link = InterAsLink(
            link_id=next(self._link_ids),
            a=as_a.info.isd_as,
            a_ifid=as_a.next_ifid,
            b=as_b.info.isd_as,
            b_ifid=as_b.next_ifid,
            kind=kind,
            **attrs,
        )
        as_a.next_ifid += 1
        as_b.next_ifid += 1
        as_a.links.append(link)
        as_b.links.append(link)
        self._links.append(link)
        return link

    @staticmethod
    def _validate_link_kind(a: AsInfo, b: AsInfo, kind: LinkKind) -> None:
        if kind is LinkKind.CORE and not (a.core and b.core):
            raise TopologyError(
                f"core link requires two core ASes: {a.isd_as}, {b.isd_as}")
        if kind is LinkKind.PARENT and a.isd != b.isd:
            raise TopologyError(
                f"parent link must stay inside one ISD: {a.isd_as} -> {b.isd_as}")

    # -- queries ---------------------------------------------------------------

    def _record(self, isd_as: IsdAs | str) -> _AsRecord:
        identifier = isd_as if isinstance(isd_as, IsdAs) else IsdAs.parse(isd_as)
        try:
            return self._ases[identifier]
        except KeyError:
            raise TopologyError(f"unknown AS {identifier}") from None

    def as_info(self, isd_as: IsdAs | str) -> AsInfo:
        """Look up an AS's static properties."""
        return self._record(isd_as).info

    def ases(self) -> list[AsInfo]:
        """All registered ASes, in insertion order."""
        return [record.info for record in self._ases.values()]

    def core_ases(self) -> list[AsInfo]:
        """All core ASes."""
        return [info for info in self.ases() if info.core]

    def isds(self) -> list[int]:
        """Sorted list of ISD numbers present."""
        return sorted({info.isd for info in self.ases()})

    def links(self) -> list[InterAsLink]:
        """All inter-AS links."""
        return list(self._links)

    def links_of(self, isd_as: IsdAs | str) -> list[InterAsLink]:
        """All links attached to an AS."""
        return list(self._record(isd_as).links)

    def link_by_ifid(self, isd_as: IsdAs, ifid: int) -> InterAsLink:
        """The link occupying interface ``ifid`` on ``isd_as``."""
        for link in self._record(isd_as).links:
            if link.ifid_of(isd_as) == ifid:
                return link
        raise TopologyError(f"{isd_as} has no interface {ifid}")

    def neighbors(self, isd_as: IsdAs,
                  kind: LinkKind | None = None) -> Iterator[tuple[IsdAs, InterAsLink]]:
        """Iterate (neighbor, link) pairs, optionally filtered by kind."""
        for link in self._record(isd_as).links:
            if kind is None or link.kind is kind:
                yield link.other(isd_as), link

    def children(self, isd_as: IsdAs) -> list[tuple[IsdAs, InterAsLink]]:
        """Customer ASes reachable over PARENT links where we are parent."""
        return [(link.b, link) for link in self._record(isd_as).links
                if link.kind is LinkKind.PARENT and link.a == isd_as]

    def parents(self, isd_as: IsdAs) -> list[tuple[IsdAs, InterAsLink]]:
        """Provider ASes over PARENT links where we are child."""
        return [(link.a, link) for link in self._record(isd_as).links
                if link.kind is LinkKind.PARENT and link.b == isd_as]

    def fingerprint(self) -> str:
        """Content digest of the whole topology.

        Covers every AS (all :class:`AsInfo` fields, in insertion order —
        order matters because it fixes PKI RNG consumption) and every
        link (all :class:`InterAsLink` fields). Two independently built
        topologies with identical content share a fingerprint, which is
        what lets the control-plane snapshot cache
        (:mod:`repro.internet.snapshot`) intern their expensive state.
        Computed fresh on every call so post-construction attribute
        edits are always reflected.
        """
        digest = hashlib.sha256()
        for record in self._ases.values():
            digest.update(repr(record.info).encode())
        for link in self._links:
            digest.update(repr(link).encode())
        return digest.hexdigest()

    def validate(self) -> None:
        """Sanity-check the topology.

        Every non-core AS must have a parent path toward its ISD core
        (otherwise beaconing can never reach it), and every ISD must have
        at least one core AS.
        """
        for isd in self.isds():
            if not any(info.core for info in self.ases() if info.isd == isd):
                raise TopologyError(f"ISD {isd} has no core AS")
        for info in self.ases():
            if not info.core and not self._reaches_core(info.isd_as):
                raise TopologyError(
                    f"{info.isd_as} has no parent path to its ISD core")

    def _reaches_core(self, start: IsdAs) -> bool:
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            if self.as_info(current).core:
                return True
            for parent, _link in self.parents(current):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return False
