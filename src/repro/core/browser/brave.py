"""The full browser assembly.

:class:`BraveBrowser` wires everything on one client host the way the
paper's prototype does on the laptop of Figure 2: a browser engine, the
extension, and the local SKIP proxy process. Disabling the extension
switches to direct TCP/IP fetches — the BGP/IP-Only configuration whose
PLT has no interception overhead (§5.2).
"""

from __future__ import annotations

import random
from collections.abc import Generator

from repro.core.browser.engine import Browser, DirectFetcher, ExtensionFetcher
from repro.core.browser.page import WebPage
from repro.core.extension.extension import BrowserExtension, ExtensionSettings
from repro.core.skip.proxy import SkipProxy
from repro.dns.resolver import Resolver
from repro.internet.host import Host


class BraveBrowser:
    """A browser with the SCION extension installed.

    Args:
        host: the client machine.
        resolver: the resolver both the proxy and direct fetches use.
        settings: extension settings (geofence, policies, strict mode).
        extension_enabled: start with the extension active or not.
        proxy_processing_ms / extension_overhead_ms / ipc_latency_ms:
            overhead calibration knobs (see experiments/local_setup.py).
        use_noncompliant_paths: opportunistic-mode behaviour when no
            compliant path exists (see
            :mod:`repro.core.skip.session`).
    """

    def __init__(self, host: Host, resolver: Resolver,
                 settings: ExtensionSettings | None = None,
                 extension_enabled: bool = True,
                 proxy_processing_ms: float | None = None,
                 extension_overhead_ms: float | None = None,
                 ipc_latency_ms: float | None = None,
                 use_noncompliant_paths: bool = False,
                 parse_delay_ms: float = 2.0,
                 rng: random.Random | None = None) -> None:
        self.host = host
        self.resolver = resolver
        proxy_kwargs = {}
        if proxy_processing_ms is not None:
            proxy_kwargs["processing_ms"] = proxy_processing_ms
        self.proxy = SkipProxy(host, resolver,
                               use_noncompliant_paths=use_noncompliant_paths,
                               rng=rng, **proxy_kwargs)
        extension_kwargs = {}
        if extension_overhead_ms is not None:
            extension_kwargs["extension_overhead_ms"] = extension_overhead_ms
        if ipc_latency_ms is not None:
            extension_kwargs["ipc_latency_ms"] = ipc_latency_ms
        self.extension = BrowserExtension(self.proxy, settings, rng=rng,
                                          **extension_kwargs)
        self.extension_enabled = extension_enabled
        self._proxied_engine = Browser(host, ExtensionFetcher(self.extension),
                                       parse_delay_ms=parse_delay_ms)
        self._direct_engine = Browser(host, DirectFetcher(host, resolver),
                                      parse_delay_ms=parse_delay_ms)

    def attach_tracer(self, tracer) -> None:
        """Install an observability :class:`~repro.obs.spans.Tracer` into
        every layer of this browser stack.

        One tracer spans the whole stack so a page load becomes a single
        tree: engine → extension → proxy → (DNS, path lookup, QUIC,
        HTTP). Passing the shared ``NULL_TRACER`` detaches again.
        """
        self._proxied_engine.tracer = tracer
        self._direct_engine.tracer = tracer
        self._direct_engine.fetcher.client.tracer = tracer
        self.extension.tracer = tracer
        self.proxy.tracer = tracer
        self.proxy.client.tracer = tracer
        self.resolver.tracer = tracer

    @property
    def settings(self) -> ExtensionSettings:
        """The active extension settings."""
        return self.extension.settings

    def enable_extension(self) -> None:
        """Route requests through extension + proxy again."""
        self.extension_enabled = True

    def disable_extension(self) -> None:
        """Bypass extension and proxy (BGP/IP-Only)."""
        self.extension_enabled = False

    def load(self, page: WebPage) -> Generator:
        """Load a page with the current configuration (simulation
        process); returns :class:`~repro.core.browser.engine.PageLoadResult`."""
        engine = (self._proxied_engine if self.extension_enabled
                  else self._direct_engine)
        result = yield from engine.load_page(page)
        return result

    def path_usage_report(self, metrics=None) -> str:
        """The proxy's user-facing statistics panel (§4); ``metrics``
        (an :func:`~repro.obs.metrics.observe` snapshot of the world)
        adds what the network did."""
        return self.proxy.stats.report(metrics)
