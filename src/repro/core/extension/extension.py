"""The extension's interception and settings logic.

The extension "has two roles. First, it presents the options and settings
in the browser's user interface and configures the proxy component
according to the user's preferences. Furthermore, it takes care of
implementing the strict mode" (§5.1). Concretely:

* settings changes (geofence toggles, extra PPL policies, mode switches)
  compile to a combined policy pushed into the proxy via its API,
* every intercepted request pays the extension's JavaScript processing
  cost plus an IPC round trip to the proxy process — the overhead that
  Figure 3 measures,
* for strict-mode requests, the extension first asks the proxy whether a
  policy-compliant SCION path exists and blocks the request otherwise,
* ``Strict-SCION`` headers on SCION responses feed the HSTS-like store
  (any response may teach an ``addr=``), and every outcome feeds the
  page indicator.
"""

from __future__ import annotations

import random
from collections.abc import Generator
from dataclasses import dataclass, field

from repro.core.extension.hsts import StrictScionStore
from repro.core.extension.ui import PageIndicator
from repro.core.geofence import Geofence
from repro.core.ppl.ast import Policy
from repro.core.ppl.evaluator import PathPolicy, combine
from repro.core.skip.proxy import ProxyResult, SkipProxy
from repro.core.skip.session import ChoiceKind
from repro.errors import (
    DnsError,
    HttpError,
    StrictModeViolation,
    TransportError,
)
from repro.http.message import HttpRequest, HttpResponse
from repro.obs.spans import NULL_SPAN, NULL_TRACER
from repro.simnet.events import SerialResource

#: Per-request extension processing (JavaScript interception,
#: bookkeeping) and one-way IPC latency to the local proxy process. The
#: extension's background script is single-threaded JavaScript, so its
#: processing is serialized across concurrent requests (a capacity-1
#: resource). See experiments/local_setup.py for the Figure 3
#: calibration.
DEFAULT_EXTENSION_OVERHEAD_MS = 1.5
DEFAULT_IPC_LATENCY_MS = 0.6


@dataclass
class ExtensionSettings:
    """What the user configured in the extension UI."""

    geofence: Geofence = field(default_factory=Geofence)
    extra_policies: list[Policy] = field(default_factory=list)
    strict_mode_global: bool = False
    strict_sites: set[str] = field(default_factory=set)

    def compile_policy(self) -> PathPolicy | None:
        """The combined policy to install in the proxy (None = no policy)."""
        policies: list[Policy] = []
        if self.geofence.active:
            policies.append(self.geofence.to_policy())
        policies.extend(self.extra_policies)
        if not policies:
            return None
        if len(policies) == 1:
            return policies[0]
        return combine(policies)


@dataclass(frozen=True)
class FetchOutcome:
    """What the browser engine gets back for one resource."""

    request: HttpRequest
    response: HttpResponse | None
    used_scion: bool
    policy_compliant: bool
    blocked: bool
    elapsed_ms: float
    #: Recovery mechanism that saved the fetch (see
    #: :class:`~repro.core.skip.proxy.ProxyResult`): "none", "failover"
    #: or "fallback".
    recovery: str = "none"
    #: The shared path service shed this request's lookup under
    #: overload (admission control; see :mod:`repro.scion.admission`).
    shed: bool = False
    #: The proxy wanted to retry but its token bucket was empty.
    retry_budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        """True when a 2xx response arrived."""
        return self.response is not None and self.response.ok


class BrowserExtension:
    """The per-browser extension instance."""

    def __init__(self, proxy: SkipProxy,
                 settings: ExtensionSettings | None = None,
                 extension_overhead_ms: float = DEFAULT_EXTENSION_OVERHEAD_MS,
                 ipc_latency_ms: float = DEFAULT_IPC_LATENCY_MS,
                 rng: random.Random | None = None) -> None:
        self.proxy = proxy
        self.settings = settings or ExtensionSettings()
        self.extension_overhead_ms = extension_overhead_ms
        self.ipc_latency_ms = ipc_latency_ms
        self.rng = rng
        assert proxy.host.loop is not None
        self.cpu = SerialResource(proxy.host.loop, capacity=1)
        self.hsts = StrictScionStore(loop=proxy.host.loop)
        self.requests_intercepted = 0
        self.requests_blocked = 0
        self.tracer = NULL_TRACER
        self.apply_settings()

    # -- settings (the UI role) ----------------------------------------------

    def apply_settings(self) -> None:
        """Push the compiled policy into the proxy (§5.1: "specific API
        calls to the HTTP proxy to apply path policies chosen by users")."""
        self.proxy.set_policy(self.settings.compile_policy())

    def set_geofence(self, geofence: Geofence) -> None:
        """Replace the geofencing selection and re-apply."""
        self.settings.geofence = geofence
        self.apply_settings()

    def enable_strict_mode(self, host: str | None = None) -> None:
        """Enable strict mode globally (``host=None``) or for one site
        ("the user can selectively enable strict mode, e.g., for
        particularly sensitive websites", §4.2)."""
        if host is None:
            self.settings.strict_mode_global = True
        else:
            self.settings.strict_sites.add(host)

    def is_strict_for(self, host: str) -> bool:
        """Whether a request to ``host`` must run in strict mode."""
        return (self.settings.strict_mode_global
                or host in self.settings.strict_sites
                or self.hsts.is_strict(host))

    # -- interception (the strict-mode role) --------------------------------------

    def handle_request(self, request: HttpRequest,
                       indicator: PageIndicator | None = None,
                       parent=NULL_SPAN) -> Generator:
        """Intercept one browser request (simulation process); returns a
        :class:`FetchOutcome`.

        Untraced, this is the :meth:`_handle` generator itself, so a
        resumption of the fetch crosses no span-wrapper frame.
        """
        if not self.tracer.enabled:
            return self._handle(request, indicator, NULL_SPAN)
        return self._traced_handle(request, indicator, parent)

    def _traced_handle(self, request: HttpRequest,
                       indicator: PageIndicator | None,
                       parent) -> Generator:
        """:meth:`_handle` inside its ``extension.intercept`` span."""
        span = self.tracer.span("extension.intercept", parent=parent,
                                host=request.host, url=request.url)
        try:
            outcome: FetchOutcome = yield from self._handle(
                request, indicator, span)
        except BaseException as error:
            if not span.ended:
                span.set(error=type(error).__name__).end("error")
            raise
        if outcome.blocked:
            span.set(blocked=True).end("error")
        else:
            span.end()
        return outcome

    def _handle(self, request: HttpRequest,
                indicator: PageIndicator | None, span) -> Generator:
        """The interception data path (span already open)."""
        assert self.proxy.host.loop is not None
        loop = self.proxy.host.loop
        started = loop.now
        self.requests_intercepted += 1
        overhead = self.extension_overhead_ms
        if self.rng is not None:
            overhead *= self.rng.uniform(0.6, 1.8)
        yield from self.cpu.use(overhead)

        strict = self.is_strict_for(request.host)
        if strict:
            # "it first checks whether the resource is available via a
            # policy-compliant SCION path" (§5.1) — one extra IPC round
            # trip for the availability probe.
            yield loop.timeout(self.ipc_latency_ms)
            _detection, choice = yield from self.proxy.check_scion(
                request.host, parent=span)
            yield loop.timeout(self.ipc_latency_ms)
            if not choice.compliant:
                self.requests_blocked += 1
                self.proxy.stats.record_blocked(request.host)
                outcome = FetchOutcome(
                    request=request, response=None, used_scion=False,
                    policy_compliant=False, blocked=True,
                    elapsed_ms=loop.now - started,
                    shed=choice.kind is ChoiceKind.OVERLOADED)
                if indicator is not None:
                    indicator.record(used_scion=False, compliant=False,
                                     blocked=True)
                return outcome

        yield loop.timeout(self.ipc_latency_ms)
        try:
            result: ProxyResult = yield from self.proxy.fetch(
                request, strict=strict, parent=span)
        except (StrictModeViolation, HttpError, TransportError,
                DnsError) as error:
            # Strict-mode blocks and genuine failures (no route, dead
            # origin, handshake timeout) both surface as a blocked
            # resource: the page degrades, the browser never crashes.
            # Overload outcomes carry their accounting on the error.
            self.requests_blocked += 1
            outcome = FetchOutcome(
                request=request, response=None, used_scion=False,
                policy_compliant=False, blocked=True,
                elapsed_ms=loop.now - started,
                shed=getattr(error, "shed", False),
                retry_budget_exhausted=getattr(
                    error, "retry_budget_exhausted", False))
            if indicator is not None:
                indicator.record(used_scion=False, compliant=False,
                                 blocked=True)
            return outcome
        yield loop.timeout(self.ipc_latency_ms)

        self._observe_response(request, result)
        if indicator is not None:
            indicator.record(used_scion=result.used_scion,
                             compliant=result.policy_compliant)
        return FetchOutcome(
            request=request,
            response=result.response,
            used_scion=result.used_scion,
            policy_compliant=result.policy_compliant,
            blocked=False,
            elapsed_ms=loop.now - started,
            recovery=result.recovery,
            shed=result.shed,
            retry_budget_exhausted=result.retry_budget_exhausted,
        )

    def _observe_response(self, request: HttpRequest,
                          result: ProxyResult) -> None:
        # Like HSTS over plain HTTP (RFC 6797 §8.1), a pin that arrived
        # over legacy IP is ignored: only a SCION response may set,
        # refresh or clear one, so an on-path IP attacker cannot pin an
        # origin it does not serve over SCION.
        if result.used_scion:
            max_age = result.response.strict_scion_max_age()
            if max_age is not None:
                self.hsts.observe(request.host, max_age)
        # §4.3: the header also advertises SCION availability — when it
        # names an address, teach the proxy's detector so the *next*
        # request to this origin can go over SCION even without a TXT
        # record or curated-list entry.
        advertised = result.response.strict_scion_address()
        if advertised is not None:
            self.proxy.detector.learn(request.host, advertised)
