"""SCMP-style interface revocations: network-wide failure dissemination.

PR 2 made dead paths discoverable per host: an application that timed
out on a path reports it to its local daemon, which quarantines the
fingerprint. That leaves every other host to pay the full discovery
cost independently — exactly what SCION's control plane was designed to
avoid. Here, the routers adjacent to a failed link originate *signed,
TTL'd revocation messages* (one per affected interface, SCMP
``InterfaceDown`` in real SCION), which propagate to the path-server
infrastructure and every subscribed daemon after a short dissemination
delay. Hosts that never touched the link drop affected paths from
their candidate sets immediately: ``combine_segments`` filters by
revoked interface, and daemons filter answers they already cached.

Design notes:

* A revocation names ``(isd_as, ifid)`` — one side of one link. Both
  endpoints of a failed link originate, so paths are filtered no matter
  which direction traverses it.
* Revocations are short-lived (``ttl_ms``). A link that stays dead past
  the TTL is rediscovered per host via the PR 2 quarantine machinery,
  mirroring real SCMP revocations, which must be refreshed. Keeping
  re-origination out of the event loop also preserves the simulation's
  run-to-quiescence property: an armed world with a permanently-dead
  link still drains.
* When the link recovers, the originators *lift* the revocation with
  the same dissemination delay, and daemons evict cached combinations
  that were computed under it so the healed path is readmitted.
* Everything is deterministic: origination draws no RNG (signatures are
  deterministic RSA), propagation uses plain timer events, and the only
  randomness — degraded path servers dropping subscriber pushes — comes
  from the server's own dedicated, seeded stream.

``REPRO_REVOCATION=0`` disables origination globally (the env knob the
resilience battery A/Bs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.obs.spans import NULL_TRACER
from repro.scion.pki import ControlPlanePki
from repro.topology.graph import InterAsLink
from repro.topology.isd_as import IsdAs

#: Environment variable disabling revocation origination ("0"/"false").
REVOCATION_ENV = "REPRO_REVOCATION"

#: How long one revocation stays valid without refresh (ms). Matches the
#: daemon's default dead-path quarantine so both discovery mechanisms
#: forget on the same horizon.
DEFAULT_REVOCATION_TTL_MS = 30_000.0

#: Control-plane dissemination delay from originating router to path
#: servers / subscribed daemons (ms).
DEFAULT_PROPAGATION_DELAY_MS = 20.0


def revocation_enabled(override: bool | None = None) -> bool:
    """Whether revocation origination is on.

    An explicit ``override`` wins; otherwise ``REPRO_REVOCATION``
    (default on, ``0``/``false``/``no``/``off`` disable — see
    :mod:`repro.internet.knobs` for the shared parsing rules).
    """
    from repro.internet.knobs import resolve_knob

    return resolve_knob(REVOCATION_ENV, override)


@dataclass(frozen=True)
class Revocation:
    """One signed interface revocation.

    Attributes:
        isd_as: the AS whose interface failed.
        ifid: the failed interface id on that AS.
        issued_ms: origination time (simulated clock).
        ttl_ms: validity window from ``issued_ms``.
        signature: the originating AS's RSA signature over the payload.
    """

    isd_as: IsdAs
    ifid: int
    issued_ms: float
    ttl_ms: float
    signature: int

    @property
    def key(self) -> tuple[IsdAs, int]:
        """The revoked interface, the unit all filtering keys on."""
        return (self.isd_as, self.ifid)

    @property
    def expires_ms(self) -> float:
        """When the revocation lapses without refresh."""
        return self.issued_ms + self.ttl_ms

    def signed_payload(self) -> bytes:
        """The byte string the originating AS signed."""
        return (f"revocation|{self.isd_as}|{self.ifid}|"
                f"{self.issued_ms}|{self.ttl_ms}").encode()

    def verify(self, pki: ControlPlanePki) -> None:
        """Verify the originator's signature chain.

        Raises :class:`~repro.errors.VerificationError` on tampering.
        """
        pki.verify(self.isd_as, self.signed_payload(), self.signature)

    @classmethod
    def originate(cls, pki: ControlPlanePki, isd_as: IsdAs, ifid: int,
                  issued_ms: float, ttl_ms: float) -> "Revocation":
        """Build and sign a revocation as ``isd_as``."""
        unsigned = cls(isd_as=isd_as, ifid=ifid, issued_ms=issued_ms,
                       ttl_ms=ttl_ms, signature=0)
        signature = pki.sign(isd_as, unsigned.signed_payload())
        return cls(isd_as=isd_as, ifid=ifid, issued_ms=issued_ms,
                   ttl_ms=ttl_ms, signature=signature)


@dataclass
class RevocationStats:
    """Counters describing revocation traffic."""

    originated: int = 0
    lifted: int = 0
    #: Deliveries pushed to the path server or a subscriber.
    propagated: int = 0
    #: Subscriber pushes dropped by a degraded path server.
    deliveries_dropped: int = 0


class RevocationService:
    """The control-plane side of failure dissemination for one world.

    Owned by :class:`~repro.internet.build.Internet`; fault injection
    and ``set_link_state`` report link transitions here. Link downs are
    refcounted (overlapping faults on one link originate once), and
    every state change reaches the path server and subscribed daemons
    one ``propagation_delay_ms`` later via ordinary timer events.
    """

    def __init__(self, loop, pki: ControlPlanePki,
                 path_server=None, enabled: bool | None = None,
                 propagation_delay_ms: float = DEFAULT_PROPAGATION_DELAY_MS,
                 ttl_ms: float = DEFAULT_REVOCATION_TTL_MS) -> None:
        self.loop = loop
        self.pki = pki
        self.path_server = path_server
        self.enabled = revocation_enabled(enabled)
        self.propagation_delay_ms = propagation_delay_ms
        self.ttl_ms = ttl_ms
        self.stats = RevocationStats()
        self.tracer: Any = NULL_TRACER
        self._subscribers: list[Any] = []
        #: link_id → overlapping down causes (fault injector + admin).
        self._down_refs: dict[int, int] = {}
        #: interface key → latest revocation originated for it.
        self._active: dict[tuple[IsdAs, int], Revocation] = {}
        #: In-flight propagation timer handles (down and lift).
        self._pending: set[object] = set()

    # -- subscriptions ----------------------------------------------------

    def subscribe(self, daemon) -> None:
        """Register a daemon for pushed revocations and lifts."""
        if daemon not in self._subscribers:
            self._subscribers.append(daemon)

    def unsubscribe(self, daemon) -> None:
        """Drop a daemon's subscription (host teardown)."""
        if daemon in self._subscribers:
            self._subscribers.remove(daemon)

    @property
    def subscriber_count(self) -> int:
        """How many daemons receive pushes."""
        return len(self._subscribers)

    @property
    def pending_propagations(self) -> int:
        """In-flight dissemination timers (0 when the plane is quiet)."""
        return len(self._pending)

    def active_keys(self, now: float) -> frozenset[tuple[IsdAs, int]]:
        """Unexpired revoked interfaces as seen at the originators."""
        expired = [key for key, rev in self._active.items()
                   if rev.expires_ms <= now]
        for key in expired:
            del self._active[key]
        return frozenset(self._active)

    # -- link transitions -------------------------------------------------

    def link_down(self, link: InterAsLink) -> None:
        """A link failed; on the first overlapping cause, both adjacent
        routers originate revocations for their interface."""
        refs = self._down_refs.get(link.link_id, 0)
        self._down_refs[link.link_id] = refs + 1
        if refs or not self.enabled:
            return
        now = self.loop.now
        for isd_as, ifid in ((link.a, link.a_ifid), (link.b, link.b_ifid)):
            revocation = Revocation.originate(self.pki, isd_as, ifid,
                                              issued_ms=now,
                                              ttl_ms=self.ttl_ms)
            self._active[revocation.key] = revocation
            self.stats.originated += 1
            span = self.tracer.span("revocation", isd_as=str(isd_as),
                                    ifid=ifid, action="revoke")
            span.event("revocation.originate", issued_ms=now,
                       ttl_ms=self.ttl_ms)
            self._schedule(lambda rev=revocation, sp=span:
                           self._propagate(rev, sp))

    def link_up(self, link: InterAsLink) -> None:
        """A down cause cleared; on the last one, lift the revocations."""
        refs = self._down_refs.get(link.link_id, 0)
        if refs == 0:
            raise ReproError(
                f"link_up for link {link.link_id} that was never down")
        if refs > 1:
            self._down_refs[link.link_id] = refs - 1
            return
        del self._down_refs[link.link_id]
        if not self.enabled:
            return
        for isd_as, ifid in ((link.a, link.a_ifid), (link.b, link.b_ifid)):
            key = (isd_as, ifid)
            if self._active.pop(key, None) is None:
                continue  # already lapsed via TTL
            self.stats.lifted += 1
            span = self.tracer.span("revocation", isd_as=str(isd_as),
                                    ifid=ifid, action="lift")
            span.event("revocation.originate", lift=True)
            self._schedule(lambda k=key, sp=span: self._lift(k, sp))

    # -- dissemination ----------------------------------------------------

    def _schedule(self, callback) -> None:
        handle_box: list[object] = []

        def fire() -> None:
            self._pending.discard(handle_box[0])
            callback()

        handle = self.loop.call_later(self.propagation_delay_ms, fire)
        handle_box.append(handle)
        self._pending.add(handle)

    def _propagate(self, revocation: Revocation, span) -> None:
        span.event("revocation.propagate",
                   subscribers=len(self._subscribers))
        server = self.path_server
        if server is not None:
            server.apply_revocation(revocation)
            self.stats.propagated += 1
        for daemon in self._subscribers:
            if server is not None and server.drops_push():
                # Degraded infrastructure: this subscriber never hears.
                self.stats.deliveries_dropped += 1
                span.event("revocation.dropped",
                           subscriber=str(daemon.isd_as))
                continue
            daemon.apply_revocation(revocation)
            self.stats.propagated += 1
            span.event("revocation.apply", subscriber=str(daemon.isd_as))
        span.end()

    def _lift(self, key: tuple[IsdAs, int], span) -> None:
        span.event("revocation.propagate",
                   subscribers=len(self._subscribers))
        server = self.path_server
        if server is not None:
            server.lift_revocation(key)
            self.stats.propagated += 1
        for daemon in self._subscribers:
            if server is not None and server.drops_push():
                self.stats.deliveries_dropped += 1
                span.event("revocation.dropped",
                           subscriber=str(daemon.isd_as))
                continue
            daemon.lift_revocation(key)
            self.stats.propagated += 1
            span.event("revocation.apply", subscriber=str(daemon.isd_as),
                       lift=True)
        span.end()
