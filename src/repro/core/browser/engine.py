"""The fetch engine: loading pages and measuring PLT.

The engine models the load the paper times: fetch the main document,
parse it, fan out all subresource fetches in parallel (connection
parallelism is bounded per origin inside the HTTP client, like a real
browser's six-connections rule), and stop the clock when the last
resource finished or was blocked. Strict-mode blocks *shorten* PLT —
exactly the effect visible in Figure 3's strict-SCION column.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.core.browser.page import WebPage
from repro.core.extension.extension import BrowserExtension, FetchOutcome
from repro.core.extension.ui import IndicatorState, PageIndicator
from repro.dns.resolver import Resolver
from repro.errors import BrowserError, DnsError, HttpError
from repro.http.client import HttpClient
from repro.http.message import HttpRequest
from repro.internet.host import Host
from repro.obs.spans import NULL_SPAN, NULL_TRACER

#: Time the engine spends parsing the main document before it discovers
#: subresources.
DEFAULT_PARSE_DELAY_MS = 2.0


@dataclass(frozen=True)
class PageLoadResult:
    """Outcome of one page load."""

    page: WebPage
    plt_ms: float
    outcomes: tuple[FetchOutcome, ...]
    indicator_state: IndicatorState
    failed: bool  # the main document could not be loaded

    @property
    def blocked_count(self) -> int:
        """Resources blocked by strict mode."""
        return sum(1 for outcome in self.outcomes if outcome.blocked)

    @property
    def scion_count(self) -> int:
        """Resources fetched over SCION."""
        return sum(1 for outcome in self.outcomes if outcome.used_scion)

    @property
    def ok_count(self) -> int:
        """Resources that arrived with a 2xx response."""
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def failover_count(self) -> int:
        """Resources saved by SCION path failover."""
        return sum(1 for outcome in self.outcomes
                   if outcome.recovery == "failover")

    @property
    def fallback_count(self) -> int:
        """Resources saved by falling back to IP despite SCION being
        available."""
        return sum(1 for outcome in self.outcomes
                   if outcome.recovery == "fallback")

    @property
    def shed_count(self) -> int:
        """Resources whose path lookup was shed by admission control."""
        return sum(1 for outcome in self.outcomes if outcome.shed)

    @property
    def retry_budget_exhausted_count(self) -> int:
        """Resources that ran out of retry tokens mid-fetch."""
        return sum(1 for outcome in self.outcomes
                   if outcome.retry_budget_exhausted)

    @property
    def degraded_fraction(self) -> float:
        """Fraction of the page's resources that never arrived (blocked
        or failed) — the partial-page degradation the UI surfaces."""
        if not self.outcomes:
            return 0.0
        return 1.0 - self.ok_count / len(self.outcomes)


class DirectFetcher:
    """The BGP/IP-Only baseline: no extension, no proxy, plain TCP."""

    def __init__(self, host: Host, resolver: Resolver,
                 tcp_port: int = 80) -> None:
        self.host = host
        self.resolver = resolver
        self.client = HttpClient(host)
        self.tcp_port = tcp_port

    def fetch(self, request: HttpRequest,
              indicator: PageIndicator | None = None,
              parent=NULL_SPAN) -> Generator:
        """Fetch directly over legacy IP; returns :class:`FetchOutcome`."""
        assert self.host.loop is not None
        started = self.host.loop.now
        try:
            resolution = yield from self.resolver.resolve(request.host,
                                                          parent=parent)
            if resolution.ip_address is None:
                raise HttpError(f"{request.host} has no A record", status=502)
            response = yield from self.client.request(
                resolution.ip_address, self.tcp_port, request, via="ip",
                parent=parent)
        except (DnsError, HttpError):
            outcome = FetchOutcome(request=request, response=None,
                                   used_scion=False, policy_compliant=False,
                                   blocked=True,
                                   elapsed_ms=self.host.loop.now - started)
            if indicator is not None:
                indicator.record(used_scion=False, compliant=False,
                                 blocked=True)
            return outcome
        if indicator is not None:
            indicator.record(used_scion=False, compliant=False)
        return FetchOutcome(request=request, response=response,
                            used_scion=False, policy_compliant=False,
                            blocked=False,
                            elapsed_ms=self.host.loop.now - started)


class ExtensionFetcher:
    """Requests detour through the extension and the SKIP proxy."""

    def __init__(self, extension: BrowserExtension) -> None:
        self.extension = extension

    def fetch(self, request: HttpRequest,
              indicator: PageIndicator | None = None,
              parent=NULL_SPAN) -> Generator:
        """The extension's interception path for ``request`` (the
        simulation process itself, so a resumption skips this frame)."""
        return self.extension.handle_request(request, indicator,
                                             parent=parent)


class Browser:
    """Loads pages through a fetcher and reports PLT."""

    def __init__(self, host: Host, fetcher,
                 parse_delay_ms: float = DEFAULT_PARSE_DELAY_MS) -> None:
        self.host = host
        self.fetcher = fetcher
        self.parse_delay_ms = parse_delay_ms
        self.pages_loaded = 0
        self.tracer = NULL_TRACER

    def load_page(self, page: WebPage) -> Generator:
        """Load one page (simulation process); returns
        :class:`PageLoadResult`."""
        tracer = self.tracer
        span = tracer.span("page.load", host=page.host, path=page.path,
                           n_resources=len(page.resources)) \
            if tracer.enabled else NULL_SPAN
        try:
            result: PageLoadResult = yield from self._load_page(page, span)
        except BaseException as error:
            if not span.ended:
                span.set(error=type(error).__name__).end("error")
            raise
        span.set(plt_ms=result.plt_ms, failed=result.failed)
        span.end("error" if result.failed else "ok")
        return result

    def _load_page(self, page: WebPage, span) -> Generator:
        """The load itself (``page.load`` span already open)."""
        if self.host.loop is None:
            raise BrowserError("browser host not attached to a network")
        loop = self.host.loop
        indicator = PageIndicator()
        started = loop.now

        main_request = HttpRequest(method="GET", host=page.host,
                                   path=page.path)
        main_outcome: FetchOutcome = yield from self._fetch(
            main_request, indicator, parent=span, main=True)
        if main_outcome.blocked or not main_outcome.ok:
            # Strict mode blocking the main document is the paper's
            # "connection error" case (§4.2).
            return PageLoadResult(
                page=page, plt_ms=loop.now - started,
                outcomes=(main_outcome,),
                indicator_state=indicator.state(), failed=True)

        parse_span = self.tracer.span("browser.parse", parent=span) \
            if self.tracer.enabled else NULL_SPAN
        yield loop.timeout(self.parse_delay_ms)
        parse_span.end()

        fetches = [loop.process(
                       self._fetch(HttpRequest(method="GET",
                                               host=resource.host,
                                               path=resource.path),
                                   indicator, parent=span),
                       name=f"fetch:{resource.url}")
                   for resource in page.resources]
        outcomes: list[FetchOutcome] = [main_outcome]
        if fetches:
            results = yield loop.all_of(fetches)
            outcomes.extend(results)
        self.pages_loaded += 1
        return PageLoadResult(
            page=page, plt_ms=loop.now - started,
            outcomes=tuple(outcomes),
            indicator_state=indicator.state(), failed=False)

    def _fetch(self, request: HttpRequest, indicator: PageIndicator,
               parent=NULL_SPAN, main: bool = False) -> Generator:
        """Fetch one object through the fetcher (``browser.fetch`` span)."""
        tracer = self.tracer
        span = tracer.span("browser.fetch", parent=parent, url=request.url,
                           main=main) if tracer.enabled else NULL_SPAN
        try:
            if tracer.enabled:
                outcome = yield from self.fetcher.fetch(request, indicator,
                                                        parent=span)
            else:
                # Keep duck-typed fetchers without a ``parent`` kwarg
                # working (and the untraced path unchanged).
                outcome = yield from self.fetcher.fetch(request, indicator)
        except BaseException as error:
            if not span.ended:
                span.set(error=type(error).__name__).end("error")
            raise
        span.set(used_scion=outcome.used_scion, blocked=outcome.blocked)
        span.end("error" if (outcome.blocked or not outcome.ok) else "ok")
        return outcome
