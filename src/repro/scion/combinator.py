"""Segment combination: turning stored segments into end-to-end paths.

The combinator implements SCION's standard up + core + down composition
(paper §2: end hosts combine path segments into "dozens to over a hundred
potential paths"):

* source and destination in the same AS → no network path needed,
* leaf → leaf via one shared core (up + down),
* leaf → leaf across cores (up + core + down),
* core endpoints degenerate to fewer parts.

Combinations that would traverse an AS twice (other than the crossover
core, which legitimately appears in two adjacent processing steps) are
discarded — those would be the "shortcut" paths real SCION encodes
differently, and naive concatenation would loop.

All path metadata is computed **only** from the beacons' signed
static-info entries, never from the ground-truth topology: end hosts can
only know what the control plane told them, and tests verify the two
agree.
"""

from __future__ import annotations

from repro.errors import SegmentError
from repro.scion.beacon import AsEntry
from repro.scion.beaconing import SegmentStore
from repro.scion.path import PathHop, PathMetadata, ScionPath
from repro.scion.segments import PathSegment
from repro.topology.isd_as import IsdAs


class _Assembler:
    """Accumulates traversed segments into hop steps plus metadata."""

    def __init__(self, timestamp: int) -> None:
        self.timestamp = timestamp
        self.steps: list[PathHop] = []
        self.link_entries: list[AsEntry] = []
        self.as_entries: list[AsEntry] = []  # one per AS run

    def add_segment(self, segment: PathSegment, reverse: bool) -> None:
        """Append a segment traversed forward (beaconing direction) or in
        reverse (an up segment, or a core segment used backwards)."""
        entries = list(segment.entries)
        if reverse:
            ordered = list(reversed(entries))
            steps = [PathHop(isd_as=entry.isd_as, ingress=entry.egress_ifid,
                             egress=entry.ingress_ifid, hop_field=entry.hop_field)
                     for entry in ordered]
        else:
            ordered = entries
            steps = [PathHop(isd_as=entry.isd_as, ingress=entry.ingress_ifid,
                             egress=entry.egress_ifid, hop_field=entry.hop_field)
                     for entry in ordered]
        for entry in entries:
            if entry.egress_ifid != 0:
                self.link_entries.append(entry)
        for step, entry in zip(steps, ordered):
            if self.as_entries and self.steps and \
                    self.steps[-1].isd_as == step.isd_as:
                # Segment crossover: the joint core AS contributes its
                # AS-level metadata only once.
                pass
            else:
                self.as_entries.append(entry)
            self.steps.append(step)

    def has_loop(self) -> bool:
        """True if any AS occurs in two non-adjacent steps."""
        seen: set[IsdAs] = set()
        previous: IsdAs | None = None
        for step in self.steps:
            if step.isd_as == previous:
                previous = step.isd_as
                continue
            if step.isd_as in seen:
                return True
            seen.add(step.isd_as)
            previous = step.isd_as
        return False

    def build(self) -> ScionPath:
        """Produce the immutable path with aggregated metadata."""
        if not self.steps:
            raise SegmentError("cannot build an empty path")
        inter_latency = sum(entry.static_info.latency_inter_ms
                            for entry in self.link_entries)
        intra_latency = sum(entry.static_info.latency_intra_ms
                            for entry in self.as_entries)
        bandwidths = [entry.static_info.bandwidth_mbps
                      for entry in self.link_entries
                      if entry.static_info.bandwidth_mbps > 0]
        mtus = ([entry.static_info.link_mtu for entry in self.link_entries
                 if entry.static_info.link_mtu > 0]
                + [entry.as_mtu for entry in self.as_entries if entry.as_mtu > 0])
        survive = 1.0
        for entry in self.link_entries:
            survive *= 1.0 - entry.static_info.loss_rate
        ases = tuple(entry.isd_as for entry in self.as_entries)
        metadata = PathMetadata(
            latency_ms=inter_latency + intra_latency,
            bandwidth_mbps=min(bandwidths) if bandwidths else 0.0,
            mtu=min(mtus) if mtus else 0,
            loss_rate=1.0 - survive,
            jitter_ms=sum(entry.static_info.jitter_ms
                          for entry in self.link_entries),
            hop_count=len(self.as_entries),
            ases=ases,
            isds=tuple(sorted({isd_as.isd for isd_as in ases})),
            regions=tuple(sorted({entry.static_info.region
                                  for entry in self.as_entries
                                  if entry.static_info.region})),
            co2_g_per_gb=sum(entry.static_info.co2_g_per_gb
                             for entry in self.as_entries),
            esg_min=min((entry.static_info.esg_rating
                         for entry in self.as_entries), default=0.0),
            price_per_gb=sum(entry.static_info.price_per_gb
                             for entry in self.as_entries),
        )
        return ScionPath(hops=tuple(self.steps), timestamp=self.timestamp,
                         metadata=metadata)


def _assemble(parts: list[tuple[PathSegment, bool]]) -> ScionPath | None:
    """Assemble (segment, reverse) parts; None if the result would loop."""
    timestamp = min(segment.timestamp for segment, _reverse in parts)
    assembler = _Assembler(timestamp=timestamp)
    for segment, reverse in parts:
        assembler.add_segment(segment, reverse=reverse)
    if assembler.has_loop():
        return None
    return assembler.build()


def _core_traversals(store: SegmentStore, from_core: IsdAs,
                     to_core: IsdAs) -> list[tuple[PathSegment, bool]]:
    """Core segments usable to travel ``from_core`` → ``to_core``, with
    the traversal direction flag."""
    traversals: list[tuple[PathSegment, bool]] = []
    for segment in store.cores_between(from_core, to_core):
        if segment.origin == from_core and segment.terminal == to_core:
            traversals.append((segment, False))
        elif segment.origin == to_core and segment.terminal == from_core:
            traversals.append((segment, True))
    return traversals


def combine_segments(src: IsdAs, dst: IsdAs, store: SegmentStore,
                     core_ases: set[IsdAs],
                     max_paths: int = 64,
                     revoked: frozenset[tuple[IsdAs, int]] = frozenset(),
                     memo: bool = True,
                     ) -> list[ScionPath]:
    """All loop-free end-to-end paths from ``src`` to ``dst``.

    Args:
        src: source AS.
        dst: destination AS.
        store: segments discovered by beaconing.
        core_ases: the set of core ASes (an end host learns this from its
            TRCs).
        max_paths: cap on returned paths, lowest metadata latency first.
        revoked: revoked ``(isd_as, ifid)`` interfaces; combinations
            traversing any of them are dropped *before* the ``max_paths``
            cap, so revocation never shrinks the usable candidate set
            below what the store could offer.
        memo: ``False`` computes the un-memoized reference: the store
            is neither read from nor written to.
    """
    if src == dst:
        return []
    # Combination over a given store is deterministic, and the store
    # invalidates this memo whenever it mutates (generation bump), so a
    # snapshot-cached store pays the assemble-and-sort cost once per
    # (src, dst) pair instead of once per daemon lookup. The revoked set
    # joins the key (content, not identity): snapshot-shared stores stay
    # correct because each distinct revocation view memoizes separately,
    # and the common empty view keeps its hot entry.
    memo_key = (src, dst, max_paths, frozenset(core_ases), revoked)
    if memo:
        cached = store._combine_memo.get(memo_key)
        if cached is not None:
            store.combine_memo_hits += 1
            return list(cached)
    candidates: list[ScionPath] = []

    # The "up part" choices: (core the part ends at, parts list).
    if src in core_ases:
        up_choices: list[tuple[IsdAs, list[tuple[PathSegment, bool]]]] = [(src, [])]
    else:
        up_choices = [(segment.origin, [(segment, True)])
                      for segment in store.ups(src)]
    if dst in core_ases:
        down_choices: list[tuple[IsdAs, list[tuple[PathSegment, bool]]]] = [(dst, [])]
    else:
        down_choices = [(segment.origin, [(segment, False)])
                        for segment in store.downs(dst)]

    for up_core, up_parts in up_choices:
        for down_core, down_parts in down_choices:
            if up_core == down_core:
                parts = up_parts + down_parts
                if parts:
                    path = _assemble(parts)
                    if path is not None:
                        candidates.append(path)
                continue
            for core_part in _core_traversals(store, up_core, down_core):
                path = _assemble(up_parts + [core_part] + down_parts)
                if path is not None:
                    candidates.append(path)

    if revoked:
        candidates = [path for path in candidates
                      if not (revoked & path.interface_set())]
    unique: dict[str, ScionPath] = {}
    for path in candidates:
        unique.setdefault(path.fingerprint(), path)
    ordered = sorted(unique.values(), key=lambda p: p.metadata.latency_ms)
    result = ordered[:max_paths]
    if memo:
        store._combine_memo[memo_key] = tuple(result)
    return list(result)
