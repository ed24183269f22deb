"""Per-path circuit breakers for the SKIP proxy's retry machinery.

PR 2's failure handling was a time-based blacklist: a path that failed
once was avoided until a TTL passed, then fully trusted again. That
readmits a still-dead path to *live traffic* the moment the clock says
so. A circuit breaker readmits on *evidence* instead:

* **closed** — healthy, requests flow;
* **open** — tripped by failure, the path is avoided until a backoff
  deadline;
* **half-open** — past the deadline, exactly one request may *probe*
  the path. Success closes the breaker (full readmission); failure
  re-opens it with a doubled backoff.

The single-probe rule is what "half-open" buys over the old blacklist:
with many concurrent fetches (a page's subresources fan out together),
only one of them risks the suspect path — the rest keep using known-good
candidates until the probe reports back.

Deliberately timer-free: state transitions are evaluated lazily against
the simulated clock at each query, so an armed breaker holds **no**
event-loop resources — nothing to leak, nothing to cancel, nothing that
could perturb RNG or event ordering (the chaos soak asserts this).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.skip.retry_budget import LazyRandom

#: Cap on the exponential backoff doubling (2**6 = 64x the base).
MAX_BACKOFF_DOUBLINGS = 6

#: Environment knob disabling circuit breaking
#: (``0``/``false``/``no``/``off``; see :mod:`repro.internet.knobs`).
#: With it off a :class:`BreakerBoard` records nothing and never blocks
#: a path — PR 2's bare quarantine behavior the ablation harness A/Bs.
BREAKER_ENV = "REPRO_BREAKER"


class BreakerState(enum.Enum):
    """The classic three circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """Breaker for one path fingerprint.

    ``failure_threshold`` consecutive failures trip it (the proxy uses
    1, preserving PR 2's avoid-after-one-failure behavior — but now with
    probed readmission instead of blind expiry).
    """

    failure_threshold: int = 1
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    #: When the OPEN state starts admitting a probe (simulated ms).
    open_until: float = 0.0
    #: Consecutive trips without an intervening success; doubles backoff.
    trip_count: int = 0
    #: Whether a half-open probe request is currently in flight.
    probe_in_flight: bool = False
    #: Times the breaker transitioned half-open → closed (the
    #: exactly-once guarantee the tests pin).
    closes: int = 0
    #: Seeded jitter stream for the OPEN backoff deadline, so half-open
    #: probes from many clients desynchronize instead of hammering a
    #: recovering path in lockstep. ``None`` (the default, and what
    #: direct construction gets) keeps the exact deterministic backoff;
    #: draws happen only on trips, so fault-free runs stay RNG-silent.
    jitter_rng: "random.Random | LazyRandom | None" = None

    def blocks(self, now: float) -> bool:
        """Whether requests must avoid this path right now.

        Observing an expired OPEN deadline transitions to HALF_OPEN;
        a HALF_OPEN breaker blocks only while its probe slot is taken.
        """
        if self.state is BreakerState.CLOSED:
            return False
        if self.state is BreakerState.OPEN:
            if now < self.open_until:
                return True
            self.state = BreakerState.HALF_OPEN
            self.probe_in_flight = False
        return self.probe_in_flight

    def try_acquire_probe(self) -> bool:
        """Claim the single half-open probe slot; False if taken."""
        if self.state is not BreakerState.HALF_OPEN:
            return True  # closed: no slot needed
        if self.probe_in_flight:
            return False
        self.probe_in_flight = True
        return True

    def record_success(self, now: float) -> str | None:
        """A request over this path succeeded.

        Returns ``"close"`` on the half-open → closed transition (for
        span events); idempotent — a second success is a plain no-op,
        so pooled workers racing on one breaker close it exactly once.
        """
        if self.state is BreakerState.OPEN and now >= self.open_until:
            self.state = BreakerState.HALF_OPEN  # observed late
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.CLOSED
            self.probe_in_flight = False
            self.trip_count = 0
            self.closes += 1
            return "close"
        return None

    def record_failure(self, now: float, backoff_ms: float) -> str | None:
        """A request over this path failed.

        Returns ``"open"`` / ``"reopen"`` when the failure trips the
        breaker (for span events), None while still under threshold.
        """
        if self.state is BreakerState.OPEN and now >= self.open_until:
            self.state = BreakerState.HALF_OPEN
        if self.state is BreakerState.HALF_OPEN:
            # The probe (or a concurrent straggler) failed: re-open with
            # a doubled backoff.
            self.probe_in_flight = False
            self.consecutive_failures += 1
            self._trip(now, backoff_ms)
            return "reopen"
        self.consecutive_failures += 1
        if self.state is BreakerState.CLOSED and \
                self.consecutive_failures >= self.failure_threshold:
            self._trip(now, backoff_ms)
            return "open"
        if self.state is BreakerState.OPEN:
            # Stragglers extend the deadline but don't re-double.
            self.open_until = max(self.open_until, now + backoff_ms)
        return None

    def _trip(self, now: float, backoff_ms: float) -> None:
        doublings = min(self.trip_count, MAX_BACKOFF_DOUBLINGS)
        self.trip_count += 1
        self.state = BreakerState.OPEN
        backoff = backoff_ms * (2 ** doublings)
        if self.jitter_rng is not None:
            backoff *= 0.5 + self.jitter_rng.random()
        self.open_until = now + backoff


@dataclass
class BreakerBoard:
    """All of one proxy's breakers, keyed by path fingerprint.

    Breakers are created lazily on first failure, so healthy paths cost
    the board nothing — one dict miss per success record.

    ``enabled=None`` defers to the ``REPRO_BREAKER`` knob (resolved once
    at construction); a disabled board stores nothing and blocks nothing.
    """

    failure_threshold: int = 1
    enabled: bool | None = None
    #: Shared jitter stream handed to every lazily-created breaker
    #: (see :attr:`CircuitBreaker.jitter_rng`); ``None`` disables jitter.
    jitter_rng: "random.Random | LazyRandom | None" = None
    _breakers: dict[str, CircuitBreaker] = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.internet.knobs import resolve_knob
        self.enabled = resolve_knob(BREAKER_ENV, self.enabled)

    def get(self, fingerprint: str) -> CircuitBreaker | None:
        """The breaker for ``fingerprint``, if one was ever tripped."""
        return self._breakers.get(fingerprint)

    def blocked(self, now: float) -> frozenset[str]:
        """Fingerprints requests must avoid at ``now``.

        A half-open breaker with a free probe slot does *not* block —
        the path selector may pick it, and the proxy then claims the
        probe slot for that request.
        """
        if not self._breakers:
            return frozenset()
        return frozenset(fp for fp, breaker in self._breakers.items()
                         if breaker.blocks(now))

    def record_failure(self, fingerprint: str, now: float,
                       backoff_ms: float) -> str | None:
        """Route a failure to (lazily creating) the path's breaker."""
        if not self.enabled:
            return None
        breaker = self._breakers.get(fingerprint)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.failure_threshold,
                jitter_rng=self.jitter_rng)
            self._breakers[fingerprint] = breaker
        return breaker.record_failure(now, backoff_ms)

    def record_success(self, fingerprint: str, now: float) -> str | None:
        """Route a success; no-op for never-tripped paths."""
        breaker = self._breakers.get(fingerprint)
        if breaker is None:
            return None
        return breaker.record_success(now)

    @property
    def probes_in_flight(self) -> int:
        """Half-open probes currently out — 0 when the proxy is idle
        (the chaos soak's leak assertion)."""
        return sum(1 for breaker in self._breakers.values()
                   if breaker.probe_in_flight)

    @property
    def open_count(self) -> int:
        """Breakers currently in the OPEN state (deadline not checked)."""
        return sum(1 for breaker in self._breakers.values()
                   if breaker.state is BreakerState.OPEN)
