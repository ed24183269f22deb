"""The per-host path daemon ("sciond").

Applications never talk to path servers directly; they ask their local
daemon for paths to a destination AS (paper §4.1: "a SCION application
[queries] the set of available candidate paths from the local AS path
service, which include metadata added during beaconing"). The daemon

* fetches and combines segments on first contact with a destination,
* optionally verifies every segment's signature chain against the
  control-plane PKI before trusting it,
* caches combined paths per destination,
* exposes the candidate set *unfiltered* — policy evaluation happens in
  the application layer (the SKIP proxy), which is the paper's central
  architectural point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (NoPathError, OverloadError,
                          PathServerUnreachableError)
from repro.scion.admission import AdmissionController
from repro.scion.combinator import combine_segments
from repro.scion.path import ScionPath
from repro.scion.path_server import PathServer
from repro.scion.pki import ControlPlanePki
from repro.topology.isd_as import IsdAs


@dataclass
class DaemonStats:
    """Counters describing daemon usage."""

    queries: int = 0
    cache_hits: int = 0
    segments_verified: int = 0
    cache_evictions: int = 0
    #: SCMP-style dead-path reports received from applications.
    path_failures_reported: int = 0
    #: Re-queries triggered because every cached path to a destination
    #: was reported dead (the daemon-level failover).
    failover_requeries: int = 0
    #: Lookups that failed because the path-server infrastructure was
    #: unreachable and the cache could not answer.
    server_unreachable: int = 0
    #: Lookups shed under overload but answered with stale cached paths.
    shed_served_stale: int = 0
    #: Lookups shed under overload with an explicit rejection.
    shed_rejected: int = 0
    #: Pushed interface revocations applied / lifted (network-wide
    #: failure dissemination, not the per-host quarantine above).
    revocations_applied: int = 0
    revocations_lifted: int = 0
    #: Cache entries evicted because they were combined under a
    #: revocation that has since been lifted or lapsed.
    revocation_evictions: int = 0


@dataclass
class PathDaemon:
    """Path lookup service for one AS's hosts.

    Attributes:
        isd_as: the AS this daemon serves.
        path_server: segment lookup backend.
        core_ases: core ASes learned from TRCs.
        pki: PKI for segment verification (None disables verification).
        max_paths: cap on combined paths per destination.
    """

    isd_as: IsdAs
    path_server: PathServer
    core_ases: set[IsdAs]
    pki: ControlPlanePki | None = None
    max_paths: int = 64
    #: Optional clock (the simulation loop); when set, expired paths are
    #: filtered out of every answer.
    clock: object | None = None
    stats: DaemonStats = field(default_factory=DaemonStats)
    #: How long a reported-dead path stays quarantined when the reporter
    #: does not say (ms).
    dead_path_ttl_ms: float = 30_000.0
    #: Bounded-queue admission gate for this daemon's fresh fetches
    #: (``REPRO_ADMISSION``); ``None`` admits everything. The shared
    #: path server's own gate (``path_server.admission``) runs after it.
    admission: AdmissionController | None = None
    #: dst → (paths, earliest expiry among them in ms, revoked view the
    #: combination was computed under). The expiry bound lets cache hits
    #: skip per-path expiry filtering until a path could actually have
    #: aged out; the revoked view lets lifts evict exactly the entries
    #: whose combinations were narrowed by the revocation.
    _cache: dict[IsdAs, tuple[list[ScionPath], float,
                              frozenset[tuple[IsdAs, int]]]] = field(
        default_factory=dict)
    #: fingerprint → quarantine-end time (ms) for paths reported dead.
    _dead_paths: dict[str, float] = field(default_factory=dict)
    #: Revoked interface → expiry time (ms), pushed by the revocation
    #: service; paths traversing any of these are filtered from every
    #: answer until the revocation is lifted or lapses.
    _revoked: dict[tuple[IsdAs, int], float] = field(default_factory=dict)

    def paths(self, dst: IsdAs) -> list[ScionPath]:
        """All candidate paths to ``dst``, lowest latency first.

        Expired paths (per hop-field exp-time) are never returned.
        Returns an empty list for the local AS (no network path needed).
        Raises :class:`NoPathError` when the destination is unreachable
        over SCION.
        """
        self.stats.queries += 1
        if dst == self.isd_as:
            return []
        stale_candidates: list[ScionPath] = []
        entry = self._cache.get(dst)
        if entry is not None:
            self.stats.cache_hits += 1
            paths, earliest_expiry, combined_under = entry
            if self.clock is None or self.clock.now < earliest_expiry:  # type: ignore[attr-defined]
                # Fast path: no cached path can have expired yet.
                fresh = list(paths)
            else:
                fresh = self._unexpired(paths)
                if fresh:
                    if len(fresh) < len(paths):
                        self._cache[dst] = (fresh,
                                            self._earliest_expiry(fresh),
                                            combined_under)
                else:
                    del self._cache[dst]  # everything aged out: refetch
                    self.stats.cache_evictions += 1
            if fresh:
                alive = self._not_quarantined(fresh)
                if alive and self._revoked:
                    alive = self._not_revoked(alive)
                if alive:
                    return alive
                # Every cached path was reported dead or revoked: keep
                # the entry (quarantine and revocations are
                # time-bounded) but try a fresh combination below —
                # beaconing may know more by now. Under overload these
                # are still the stale answer of last resort.
                stale_candidates = fresh
        shedder = self._overloaded()
        if shedder is not None:
            if stale_candidates:
                # Serve-stale: a possibly-dead cached path beats a
                # fresh fetch the overloaded service cannot afford.
                shedder.shed("serve-stale")
                self.stats.shed_served_stale += 1
                return stale_candidates
            shedder.shed("rejected")
            self.stats.shed_rejected += 1
            raise OverloadError(
                f"path lookup shed under overload ({shedder.service}) "
                f"{self.isd_as} -> {dst}")
        if not getattr(self.path_server, "available", True):
            # Infrastructure outage: the cache could not answer and the
            # server cannot be queried — expired segments stay expired.
            self.stats.server_unreachable += 1
            raise PathServerUnreachableError(
                f"path server unreachable, no cached path "
                f"{self.isd_as} -> {dst}")
        segments = self._fetch_segments(dst)
        if self.pki is not None:
            for segment in segments:
                segment.verify(self.pki)
                self.stats.segments_verified += 1
        revoked = self._revocation_view()
        paths = combine_segments(self.isd_as, dst, self.path_server.store,
                                 core_ases=self.core_ases,
                                 max_paths=self.max_paths,
                                 revoked=revoked)
        paths = self._unexpired(paths)
        if not paths:
            raise NoPathError(f"no SCION path {self.isd_as} -> {dst}")
        self._cache[dst] = (paths, self._earliest_expiry(paths), revoked)
        alive = self._not_quarantined(paths)
        if not alive:
            raise NoPathError(
                f"all SCION paths {self.isd_as} -> {dst} reported dead")
        return alive

    def _overloaded(self) -> AdmissionController | None:
        """Run the fresh-fetch admission gates (daemon first, then the
        shared path server); returns the controller that shed this
        lookup, or ``None`` when admitted everywhere. Disabled or
        absent controllers admit everything."""
        if self.admission is not None and not self.admission.admit():
            return self.admission
        server_admission = getattr(self.path_server, "admission", None)
        if server_admission is not None and not server_admission.admit():
            return server_admission
        return None

    @staticmethod
    def _earliest_expiry(paths: list[ScionPath]) -> float:
        return min(path.expiry_ms() for path in paths)

    def _unexpired(self, paths: list[ScionPath]) -> list[ScionPath]:
        if self.clock is None:
            return list(paths)
        now_ms = self.clock.now  # type: ignore[attr-defined]
        return [path for path in paths if not path.is_expired(now_ms)]

    def report_path_failure(self, dst: IsdAs, fingerprint: str,
                            ttl_ms: float | None = None) -> bool:
        """SCMP-style dead-path signal from an application.

        Quarantines the path for ``ttl_ms`` (the daemon's
        ``dead_path_ttl_ms`` when unset); while quarantined it is
        filtered from every answer. When the report kills the last live
        candidate for ``dst`` and the path-server infrastructure is
        reachable, the daemon immediately re-queries so the next
        selection sees a fresh candidate set (the daemon-level
        failover). Returns True when at least one live candidate remains
        for ``dst`` afterwards.
        """
        self.stats.path_failures_reported += 1
        now = self.clock.now if self.clock is not None else 0.0  # type: ignore[attr-defined]
        ttl = self.dead_path_ttl_ms if ttl_ms is None else ttl_ms
        # Purge expired marks on the report path too — a daemon that
        # only ever *reports* under churn (its apps keep failing over
        # before looking up) must not grow the quarantine map unboundedly.
        self._purge_quarantine(now)
        self._dead_paths[fingerprint] = now + ttl
        entry = self._cache.get(dst)
        if entry is not None and self._not_quarantined(entry[0]):
            return True
        if not getattr(self.path_server, "available", True):
            return False
        self.stats.failover_requeries += 1
        try:
            return bool(self.paths(dst))
        except NoPathError:
            return False

    def _purge_quarantine(self, now: float) -> None:
        """Drop quarantine marks whose TTL has passed."""
        if not self._dead_paths:
            return
        expired = [fp for fp, until in self._dead_paths.items()
                   if until <= now]
        for fp in expired:
            del self._dead_paths[fp]

    def _not_quarantined(self, paths: list[ScionPath]) -> list[ScionPath]:
        """``paths`` minus those under an active dead-path quarantine.

        Expired quarantine marks are purged on the way — the common
        (empty-quarantine) case costs one truthiness check.
        """
        if not self._dead_paths:
            return list(paths)
        now = self.clock.now if self.clock is not None else 0.0  # type: ignore[attr-defined]
        self._purge_quarantine(now)
        if not self._dead_paths:
            return list(paths)
        return [path for path in paths
                if path.fingerprint() not in self._dead_paths]

    # -- revocations (network-wide failure dissemination) -----------------

    def apply_revocation(self, revocation) -> None:
        """A pushed interface revocation from the control plane.

        Verified against the PKI when the daemon verifies segments.
        Answers filter live (see :meth:`_not_revoked`), so cached
        combinations need no eviction here — they simply stop offering
        the affected paths.
        """
        if self.pki is not None:
            revocation.verify(self.pki)
        key = revocation.key
        if revocation.expires_ms > self._revoked.get(key, 0.0):
            self._revoked[key] = revocation.expires_ms
        self.stats.revocations_applied += 1

    def lift_revocation(self, key: tuple[IsdAs, int]) -> None:
        """The control plane says the revoked interface recovered.

        Cache entries combined *under* the revocation excluded the now-
        healed paths entirely, so they are evicted — the next lookup
        recombines and readmits them.
        """
        if self._revoked.pop(key, None) is None:
            return
        self.stats.revocations_lifted += 1
        self._evict_combined_under(key)

    def _evict_combined_under(self, key: tuple[IsdAs, int]) -> None:
        stale = [dst for dst, entry in self._cache.items()
                 if key in entry[2]]
        for dst in stale:
            del self._cache[dst]
            self.stats.cache_evictions += 1
            self.stats.revocation_evictions += 1

    def _active_revocations(self) -> frozenset[tuple[IsdAs, int]]:
        """Unexpired revoked interfaces; lapsed ones are purged (and
        their narrowed cache entries evicted) on the way."""
        if not self._revoked:
            return frozenset()
        now = self.clock.now if self.clock is not None else 0.0  # type: ignore[attr-defined]
        expired = [key for key, until in self._revoked.items()
                   if until <= now]
        for key in expired:
            del self._revoked[key]
            self._evict_combined_under(key)
        return frozenset(self._revoked)

    def _not_revoked(self, paths: list[ScionPath]) -> list[ScionPath]:
        """``paths`` minus those traversing a revoked interface."""
        active = self._active_revocations()
        if not active:
            return paths
        return [path for path in paths
                if not (active & path.interface_set())]

    def _revocation_view(self) -> frozenset[tuple[IsdAs, int]]:
        """The revoked set a fresh combination must respect: the
        daemon's own pushed revocations merged with the path server's
        (possibly degraded) view."""
        revoked = self._active_revocations()
        view = getattr(self.path_server, "revocation_view", None)
        if view is not None:
            now = self.clock.now if self.clock is not None else 0.0  # type: ignore[attr-defined]
            server_view = view(now)
            if server_view:
                revoked = revoked | server_view
        return revoked

    def try_paths(self, dst: IsdAs) -> list[ScionPath]:
        """Like :meth:`paths` but returns [] instead of raising.

        The SKIP proxy uses this for its SCION-or-fallback decision.
        """
        try:
            return self.paths(dst)
        except OverloadError:
            raise  # shed is an explicit outcome, not "no path exists"
        except NoPathError:
            return []

    def flush_cache(self) -> None:
        """Drop cached combinations (e.g. after a policy change that
        alters ``max_paths`` semantics in tests)."""
        self._cache.clear()

    def _fetch_segments(self, dst: IsdAs) -> list:
        """The segments a combination for ``dst`` could draw on (for
        verification accounting)."""
        segments = []
        if self.isd_as not in self.core_ases:
            segments.extend(self.path_server.up_segments(self.isd_as))
        if dst not in self.core_ases:
            segments.extend(self.path_server.down_segments(dst))
        up_cores = ({self.isd_as} if self.isd_as in self.core_ases else
                    {segment.origin
                     for segment in self.path_server.store.ups(self.isd_as)})
        down_cores = ({dst} if dst in self.core_ases else
                      {segment.origin
                       for segment in self.path_server.store.downs(dst)})
        for up_core in up_cores:
            for down_core in down_cores:
                if up_core != down_core:
                    segments.extend(
                        self.path_server.core_segments(up_core, down_core))
        return segments
