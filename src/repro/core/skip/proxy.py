"""The SKIP HTTP proxy.

The local process every browser request detours through when the
extension is enabled (§5.1: "the extension configures the default proxy
for all network requests to the HTTP proxy component, which then decides
on using either SCION or IPv4/6"). Per request the proxy

1. detects the destination's SCION and IP addresses,
2. selects a SCION path under the active policy (set by the extension
   through the proxy's configuration API),
3. fetches over QUIC/SCION, or falls back to TCP/IP — in the default
   opportunistic mode; in strict mode a request without a
   policy-compliant SCION path raises
   :class:`~repro.errors.StrictModeViolation` instead of falling back,
4. records path-usage statistics and charges its own processing time.

The proxy is policy-ignorant about *when* strict mode applies — that
context lives in the extension (§5.1: "as the proxy is a regular HTTP
proxy it does not have the necessary context to decide whether strict
mode should be enabled for a particular request").
"""

from __future__ import annotations

import random
from collections.abc import Generator
from dataclasses import dataclass

from repro.core.ppl.evaluator import PathPolicy
from repro.core.skip.breaker import BreakerBoard, BreakerState
from repro.core.skip.detection import DetectionResult, ScionDetector
from repro.core.skip.retry_budget import RetryBudget
from repro.core.skip.session import ChoiceKind, PathChoice, PathSelector
from repro.core.skip.stats import PathUsageStats
from repro.dns.resolver import Resolver
from repro.errors import (
    HttpError,
    ProxyError,
    StrictModeViolation,
    TransportError,
)
from repro.http.client import HttpClient
from repro.http.message import HttpRequest, HttpResponse
from repro.internet.host import Host
from repro.obs.spans import NULL_SPAN, NULL_TRACER
from repro.simnet.events import SerialResource

#: Default per-request processing cost of the proxy process (parsing,
#: policy evaluation, connection shuffling). The proxy's CPU is modelled
#: as a capacity-1 resource: concurrent requests queue for it instead of
#: overlapping, which is what makes the Figure 3 overhead scale with the
#: number of proxied resources. Calibrated together with the extension
#: overhead so the local-setup PLT delta lands in the ~100 ms regime the
#: paper reports; see experiments/local_setup.py.
DEFAULT_PROCESSING_MS = 6.0
#: Processing cost of a strict-mode availability probe (policy
#: evaluation only, no data path).
DEFAULT_CHECK_PROCESSING_MS = 0.5
#: Per-attempt response deadline. This is a *hang backstop*, not the
#: primary failure detector: dead new connections surface as handshake
#: errors within ~5 s and dying established ones as transport errors
#: once the retransmission budget drains (~90 s worst case: 12 retries
#: with the RTO capped at 10 s). The default therefore sits just above
#: that budget — a *live* exchange under extreme sustained loss
#: (retransmission tails reach ~60 s in the loss tests) must never be
#: aborted. Chaos experiments lower it per-proxy to model impatient
#: browsers in worlds where healthy exchanges are fast.
DEFAULT_REQUEST_TIMEOUT_MS = 95_000.0
#: Base delay between retry attempts; doubles per attempt.
DEFAULT_RETRY_BACKOFF_MS = 40.0


@dataclass(frozen=True)
class ProxyResult:
    """Everything the extension needs to know about one fetch."""

    response: HttpResponse
    used_scion: bool
    policy_compliant: bool
    path_fingerprint: str | None
    detection_source: str
    elapsed_ms: float
    #: How the fetch survived failures: ``"none"`` (first attempt
    #: succeeded), ``"failover"`` (an alternate SCION path succeeded
    #: after the active one died), ``"fallback"`` (served over IP even
    #: though the destination is SCION-capable).
    recovery: str = "none"
    #: The shared path service shed this request's lookup under
    #: overload (served stale or degraded to IP without retrying).
    shed: bool = False
    #: A retry was wanted but the client's token bucket was empty.
    retry_budget_exhausted: bool = False


class SkipProxy:
    """One browser's local HTTP proxy."""

    def __init__(self, host: Host, resolver: Resolver,
                 policy: PathPolicy | None = None,
                 processing_ms: float = DEFAULT_PROCESSING_MS,
                 check_processing_ms: float = DEFAULT_CHECK_PROCESSING_MS,
                 use_noncompliant_paths: bool = False,
                 quic_port: int = 443, tcp_port: int = 80,
                 rng: random.Random | None = None,
                 request_timeout_ms: float = DEFAULT_REQUEST_TIMEOUT_MS,
                 retry_backoff_ms: float = DEFAULT_RETRY_BACKOFF_MS,
                 breaker: bool | None = None,
                 retry_budget: bool | None = None) -> None:
        if host.daemon is None:
            raise ProxyError(f"host {host.name} has no path daemon")
        if host.loop is None:
            raise ProxyError(f"host {host.name} not attached to a network")
        self.host = host
        self.client = HttpClient(host)
        self.detector = ScionDetector(resolver=resolver)
        self.selector = PathSelector(host.daemon,
                                     use_noncompliant=use_noncompliant_paths)
        self.policy = policy
        self.processing_ms = processing_ms
        self.check_processing_ms = check_processing_ms
        self.rng = rng
        self.cpu = SerialResource(host.loop, capacity=1)
        self.quic_port = quic_port
        self.tcp_port = tcp_port
        self.stats = PathUsageStats()
        #: Base avoidance window after a path failure; the breaker's
        #: OPEN deadline, doubled on each re-trip.
        self.failure_backoff_ms = 30_000.0
        self.max_scion_attempts = 2
        self.max_ip_attempts = 2
        self.request_timeout_ms = request_timeout_ms
        self.retry_backoff_ms = retry_backoff_ms
        #: Failover state: one circuit breaker per failed path
        #: fingerprint (closed → open on failure → half-open with a
        #: single probe before readmission). ``breaker=None`` defers to
        #: the ``REPRO_BREAKER`` knob.
        self.breakers = BreakerBoard(
            enabled=breaker,
            jitter_rng=random.Random(f"breaker-jitter:{host.name}"))
        #: Token-bucket retry authorization (``REPRO_RETRY_BUDGET``):
        #: bounds this client's retry amplification and desynchronizes
        #: backoff with seeded jitter. ``retry_budget=None`` defers to
        #: the environment knob.
        self.retry_budget = RetryBudget(name=host.name,
                                        enabled=retry_budget)
        self.failovers = 0
        #: Plain counters for retry-amplification reporting: fetches
        #: through :meth:`fetch` and wire attempts they cost.
        self.fetches = 0
        self.attempts = 0
        self.tracer = NULL_TRACER

    # -- configuration API (what the extension calls, §5.1) ---------------------

    def set_policy(self, policy: PathPolicy | None) -> None:
        """Install the user's (combined) path policy."""
        self.policy = policy

    def _cost(self, nominal_ms: float) -> float:
        """Processing time with OS-scheduling noise when an RNG is set."""
        if self.rng is None:
            return nominal_ms
        return nominal_ms * self.rng.uniform(0.6, 1.8)

    def _avoided_paths(self) -> frozenset[str]:
        """Fingerprints the breaker board blocks right now.

        A half-open breaker with a free probe slot is *not* avoided —
        selecting it makes this request the probe (see
        :meth:`_admit_choice`).
        """
        assert self.host.loop is not None
        return self.breakers.blocked(self.host.loop.now)

    def _admit_choice(self, choice: PathChoice, dst_isd_as, policy,
                      span) -> PathChoice:
        """Pass the selector's pick through its circuit breaker.

        If the chosen path's breaker is half-open, this request claims
        the single probe slot; should the slot be taken (a concurrent
        fetch already probes), re-choose avoiding the path.
        """
        avoid: frozenset[str] | None = None
        while choice.usable and choice.path is not None:
            fingerprint = choice.path.fingerprint()
            breaker = self.breakers.get(fingerprint)
            if breaker is None or \
                    breaker.state is not BreakerState.HALF_OPEN:
                break
            if breaker.try_acquire_probe():
                span.event("breaker.half_open", fingerprint=fingerprint)
                break
            avoid = (avoid if avoid is not None
                     else self._avoided_paths()) | {fingerprint}
            choice = self.selector.choose(dst_isd_as, policy, avoid=avoid)
        return choice

    def _effective_policy(self, host: str, server_preferences):
        """The user's policy with negotiated server preferences appended.

        The server contributes ordering only; the user's ACL,
        requirements and own preferences always dominate.
        """
        if not server_preferences:
            return self.policy
        from repro.core.negotiation import preferences_as_policy
        from repro.core.ppl.evaluator import combine
        server_policy = preferences_as_policy(host, server_preferences)
        if self.policy is None:
            return server_policy
        return combine([self.policy, server_policy])

    def add_curated_domain(self, host: str, address) -> None:
        """Extend the curated SCION-domain list."""
        self.detector.add_curated(host, address)

    def check_scion(self, host_name: str, parent=NULL_SPAN) -> Generator:
        """Availability probe for the extension's strict-mode gate.

        Returns ``(detection, choice)`` — whether the domain is
        SCION-reachable and whether a policy-compliant path exists —
        without fetching anything.
        """
        tracer = self.tracer
        span = tracer.span("proxy.check", parent=parent, host=host_name) \
            if tracer.enabled else NULL_SPAN
        yield from self.cpu.use(self._cost(self.check_processing_ms))
        detection: DetectionResult = yield from self.detector.detect(
            host_name, parent=span)
        if not detection.scion_available:
            span.set(scion_available=False).end()
            return detection, PathChoice(kind=ChoiceKind.NO_SCION)
        choice = self.selector.choose(detection.scion_address.isd_as,
                                      self.policy)
        span.set(scion_available=True, kind=choice.kind.value).end()
        return detection, choice

    # -- the data path ---------------------------------------------------------------

    def fetch(self, request: HttpRequest, strict: bool = False,
              server_preferences=None, parent=NULL_SPAN) -> Generator:
        """Fetch one request (simulation process); returns
        :class:`ProxyResult`.

        ``server_preferences`` is an optional negotiated preference tuple
        (see :mod:`repro.core.negotiation`); it is appended *after* the
        user's policy, so it can only break the user's ties.

        Raises :class:`StrictModeViolation` when ``strict`` and no
        policy-compliant SCION route exists, and :class:`HttpError` when
        no route at all exists.
        """
        tracer = self.tracer
        span = tracer.span("proxy.fetch", parent=parent,
                           host=request.host, strict=strict) \
            if tracer.enabled else NULL_SPAN
        try:
            result: ProxyResult = yield from self._fetch(
                request, strict, server_preferences, span)
        except BaseException as error:
            if not span.ended:
                span.set(error=type(error).__name__).end("error")
            raise
        span.set(transport="scion" if result.used_scion else "ip",
                 recovery=result.recovery).end()
        return result

    def _fetch(self, request: HttpRequest, strict: bool,
               server_preferences, span) -> Generator:
        """The data path of :meth:`fetch` (span already open)."""
        assert self.host.loop is not None
        loop = self.host.loop
        started = loop.now
        tracer = self.tracer
        self.fetches += 1
        yield from self.cpu.use(self._cost(self.processing_ms))

        # Path lookup covers detection (DNS + curated/learned lists)
        # through selection — the simulated time spent deciding *how* to
        # reach the origin before any byte moves.
        lookup_span = tracer.span("path.lookup", parent=span,
                                  host=request.host) \
            if tracer.enabled else NULL_SPAN
        detection: DetectionResult = yield from self.detector.detect(
            request.host, parent=lookup_span)

        choice = PathChoice(kind=ChoiceKind.NO_SCION)
        effective = None
        if detection.scion_available:
            effective = self._effective_policy(request.host,
                                               server_preferences)
            choice = self.selector.choose(detection.scion_address.isd_as,
                                          effective,
                                          avoid=self._avoided_paths())
            choice = self._admit_choice(
                choice, detection.scion_address.isd_as, effective, span)
        lookup_span.set(source=detection.source,
                        kind=choice.kind.value).end()
        shed = choice.kind is ChoiceKind.OVERLOADED

        if strict and not choice.compliant:
            self.stats.record_blocked(request.host)
            span.set(blocked=True, reason=choice.kind.value)
            violation = StrictModeViolation(
                f"strict mode: no policy-compliant SCION path for "
                f"{request.host} ({choice.kind.value})")
            violation.shed = shed
            raise violation

        attempts = 0
        budget_exhausted = False
        while choice.usable and attempts < self.max_scion_attempts:
            if attempts:
                if not self.retry_budget.try_spend(loop.now):
                    # Out of tokens: stop amplifying, fall back to IP.
                    span.event("retry-budget-exhausted", transport="scion")
                    budget_exhausted = True
                    break
                # Exponential backoff (seed-jittered when the budget is
                # enabled) between retry attempts.
                span.event("retry", transport="scion", attempt=attempts)
                yield loop.timeout(self.retry_budget.jittered_backoff(
                    self.retry_backoff_ms * (2 ** (attempts - 1))))
            try:
                self.attempts += 1
                response = yield from self.client.request(
                    detection.scion_address, self.quic_port, request,
                    via="scion", path=choice.path,
                    timeout_ms=self.request_timeout_ms, parent=span)
            except (HttpError, TransportError) as error:
                attempts += 1
                span.event("attempt-failed", transport="scion",
                           attempt=attempts, error=type(error).__name__)
                if choice.path is None:
                    break  # local-AS fetch failed; nothing to fail over to
                # Trip the path's circuit breaker and tell the daemon
                # (SCMP-style dead-path report): it quarantines the
                # path and re-queries when the candidate set for this
                # destination empties. The breaker avoids the path
                # until its backoff deadline, then readmits it through
                # a single half-open probe.
                fingerprint = choice.path.fingerprint()
                transition = self.breakers.record_failure(
                    fingerprint, loop.now, self.failure_backoff_ms)
                if transition is not None:
                    span.event("breaker.open", fingerprint=fingerprint,
                               reopen=(transition == "reopen"))
                self.failovers += 1
                span.event("report-path-failure", fingerprint=fingerprint)
                self.host.daemon.report_path_failure(
                    detection.scion_address.isd_as, fingerprint,
                    ttl_ms=self.failure_backoff_ms)
                choice = self.selector.choose(
                    detection.scion_address.isd_as, effective,
                    avoid=self._avoided_paths())
                choice = self._admit_choice(
                    choice, detection.scion_address.isd_as, effective,
                    span)
                shed = shed or choice.kind is ChoiceKind.OVERLOADED
                continue
            elapsed = loop.now - started
            if choice.path is not None:
                fingerprint = choice.path.fingerprint()
                if self.breakers.record_success(
                        fingerprint, loop.now) == "close":
                    span.event("breaker.close", fingerprint=fingerprint)
            self.stats.record_scion(
                request.host,
                fingerprint=(choice.path.fingerprint() if choice.path
                             else "local-as"),
                summary=(choice.path.summary() if choice.path
                         else "(local AS)"),
                latency_ms=elapsed,
                compliant=choice.compliant,
            )
            return ProxyResult(
                response=response,
                used_scion=True,
                policy_compliant=choice.compliant,
                path_fingerprint=(choice.path.fingerprint()
                                  if choice.path else None),
                detection_source=detection.source,
                elapsed_ms=elapsed,
                recovery="failover" if attempts else "none",
                shed=shed,
            )

        if strict:
            # All SCION attempts failed; strict mode never falls back.
            self.stats.record_blocked(request.host)
            span.set(blocked=True, reason="scion-exhausted")
            violation = StrictModeViolation(
                f"strict mode: SCION fetch for {request.host} failed on "
                f"all attempted paths")
            violation.shed = shed
            violation.retry_budget_exhausted = budget_exhausted
            raise violation
        if detection.ip_address is None:
            raise HttpError(f"no route to {request.host}", status=502)
        if detection.scion_available:
            span.event("fallback",
                       reason=("scion-exhausted" if attempts
                               else choice.kind.value))
        ip_attempts = 0
        while True:
            if ip_attempts:
                span.event("retry", transport="ip", attempt=ip_attempts)
                yield loop.timeout(self.retry_budget.jittered_backoff(
                    self.retry_backoff_ms * (2 ** (ip_attempts - 1))))
            try:
                self.attempts += 1
                response = yield from self.client.request(
                    detection.ip_address, self.tcp_port, request, via="ip",
                    timeout_ms=self.request_timeout_ms, parent=span)
                break
            except (HttpError, TransportError) as error:
                ip_attempts += 1
                span.event("attempt-failed", transport="ip",
                           attempt=ip_attempts, error=type(error).__name__)
                if ip_attempts >= self.max_ip_attempts:
                    error.shed = shed
                    error.retry_budget_exhausted = budget_exhausted
                    raise
                if not self.retry_budget.try_spend(loop.now):
                    span.event("retry-budget-exhausted", transport="ip")
                    budget_exhausted = True
                    error.shed = shed
                    error.retry_budget_exhausted = True
                    raise
        elapsed = loop.now - started
        self.stats.record_ip(request.host, elapsed,
                             scion_was_available=detection.scion_available)
        return ProxyResult(
            response=response,
            used_scion=False,
            policy_compliant=False,
            path_fingerprint=None,
            detection_source=detection.source,
            elapsed_ms=elapsed,
            recovery="fallback" if detection.scion_available else "none",
            shed=shed,
            retry_budget_exhausted=budget_exhausted,
        )
