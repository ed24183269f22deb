"""Cross-trial control-plane snapshot cache.

Building an :class:`~repro.internet.build.Internet` is dominated by
control-plane work — PKI generation (RSA key pairs, signing), beaconing,
and BGP convergence — yet that state is a pure function of
``(topology, beacons_per_target, verify_beacons)``: beaconing and BGP
are deterministic graph algorithms, the PKI draws from a private RNG
seeded from the topology's fingerprint, and none of them touch the
data-plane RNG stream. The trial seed reaches nothing in it — like the
standing SCIONLab control plane the paper's page loads run over, TRCs,
certificates and beacons outlive every load — so a battery that
rebuilds the same world per seed and per condition would otherwise
repeat the exact same computation (and its Miller–Rabin) every time.

This module interns that state: :func:`control_plane_snapshot` returns a
frozen :class:`ControlPlaneSnapshot` (PKI material, the
:class:`~repro.scion.beaconing.SegmentStore` — verified when
``verify_beacons`` is set — and the converged
:class:`~repro.ip.bgp.BgpRib`) from a process-local LRU cache keyed by
``(topology fingerprint, beacons_per_target, verify_beacons)``.
The :class:`~repro.internet.build.Internet` then instantiates only the
cheap mutable layer — simnet routers, links, hosts, per-host daemons —
on top, and feeds its ``seed`` to what a trial really varies: the
data-plane RNG, the path server's degradation stream, the workload.

Correctness properties (test-enforced):

* **Bit-identical results.** The snapshot is a pure function of its key,
  so serial, cached, and worker-pool runs of any battery produce the
  same samples to the last bit, whichever seeds a process ran before.
  Per-seed RNG streams are untouched: the PKI RNG is local to
  :class:`~repro.scion.pki.ControlPlanePki`, no simulated number reads
  key bytes, and the data-plane RNG is seeded independently by the
  ``Network``.
* **Spawn-safe.** The cache is a module-level dict, so every spawned
  worker process starts empty and builds each snapshot it needs exactly
  once, then reuses it across all trials the pool hands it.
* **Immutability.** Nothing in the runtime stack mutates the shared
  state: the :class:`~repro.scion.path_server.PathServer` (which carries
  the mutable ``available`` flag) is per-Internet, daemons keep their
  own path caches, and ``BgpRib.forwarding_table`` returns fresh dicts.
  Store mutations (only done by tests building custom worlds) bump the
  store's ``generation`` and invalidate the combine memo. The PKI fills
  in its RSA material at the first signature (during the snapshot build
  for any multi-AS topology; whenever a world first signs for a
  single-AS one) — a write-once value that is a pure function of the
  key, so it does not matter which sharing world triggers it.

The cache has no off switch: nothing a figure, battery or benchmark
runs would take the off side. Tests that want an uncached reference
call :func:`clear_cache` and set :data:`MAX_CACHED_SNAPSHOTS` to 0, so
every build misses and is evicted at once. :data:`stats` counts
hits/misses/evictions so tests can assert cache behavior.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.ip.bgp import BgpRib, compute_routes
from repro.scion.beaconing import BeaconingService, SegmentStore
from repro.scion.pki import ControlPlanePki
from repro.topology.graph import AsTopology
from repro.topology.isd_as import IsdAs

#: LRU bound: random-topology sweeps (Ablation B) would otherwise grow
#: the cache without limit; real batteries use a handful of keys.
MAX_CACHED_SNAPSHOTS = 64


@dataclass
class SnapshotStats:
    """Counters describing snapshot-cache usage (process-local)."""

    hits: int = 0
    misses: int = 0
    #: Entries dropped by the LRU bound.
    evictions: int = 0

    def reset(self) -> None:
        """Zero all counters (test isolation)."""
        self.hits = self.misses = self.evictions = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (picklable, cross-process)."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}

    def delta_since(self, base: dict[str, int]) -> dict[str, int]:
        """Counter growth since a previously captured :meth:`as_dict`."""
        current = self.as_dict()
        return {name: current[name] - base.get(name, 0)
                for name in current}


#: Process-local usage counters.
stats = SnapshotStats()

_cache: "OrderedDict[tuple, ControlPlaneSnapshot]" = OrderedDict()


@dataclass(frozen=True)
class ControlPlaneSnapshot:
    """Frozen, shareable control-plane state of one world configuration.

    Attributes:
        key: the cache key this snapshot was built under.
        pki: TRCs, AS certificates, signing keys, forwarding keys.
        store: the segment store produced by beaconing (verified when
            ``verify_beacons`` was set).
        bgp: the converged BGP RIB.
        core_ases: the topology's core ASes (what end hosts learn from
            their TRCs).
    """

    key: tuple
    pki: ControlPlanePki
    store: SegmentStore
    bgp: BgpRib
    core_ases: frozenset[IsdAs]


def snapshot_key(topology: AsTopology, beacons_per_target: int,
                 verify_beacons: bool) -> tuple:
    """The cache key: every input the control-plane state depends on."""
    return (topology.fingerprint(), beacons_per_target, bool(verify_beacons))


def _build(topology: AsTopology, key: tuple) -> ControlPlaneSnapshot:
    fingerprint, beacons_per_target, verify_beacons = key
    # Distinct topologies keep distinct secrets; trial seeds share them.
    pki = ControlPlanePki(topology, seed=int(fingerprint, 16))
    beaconing = BeaconingService(
        topology, pki, beacons_per_target=beacons_per_target,
        verify_on_extend=verify_beacons)
    store = beaconing.build_store()
    bgp = compute_routes(topology)
    core_ases = frozenset(info.isd_as for info in topology.core_ases())
    return ControlPlaneSnapshot(key=key, pki=pki, store=store, bgp=bgp,
                                core_ases=core_ases)


def control_plane_snapshot(topology: AsTopology,
                           beacons_per_target: int = 8,
                           verify_beacons: bool = False
                           ) -> ControlPlaneSnapshot:
    """The (cached) control plane for one world configuration.

    On a hit, the returned snapshot is the very object a previous build
    produced — PKI generation, beaconing, and BGP convergence are all
    skipped. On a miss the state is built once and interned.
    """
    key = snapshot_key(topology, beacons_per_target, verify_beacons)
    snapshot = _cache.get(key)
    if snapshot is not None:
        stats.hits += 1
        _cache.move_to_end(key)
        return snapshot
    stats.misses += 1
    snapshot = _build(topology, key)
    _cache[key] = snapshot
    while len(_cache) > MAX_CACHED_SNAPSHOTS:
        _cache.popitem(last=False)
        stats.evictions += 1
    return snapshot


def cache_size() -> int:
    """Number of snapshots currently interned."""
    return len(_cache)


def clear_cache() -> None:
    """Drop every interned snapshot (test isolation / memory reclaim)."""
    _cache.clear()
