"""Every browser world, declared once: a :class:`WorldSpec` and :func:`build`.

Each battery declares its world as a spec constant beside its
:class:`~repro.experiments.harness.Battery` and varies it one field at
a time (``dataclasses.replace``). A spec with a ``page`` is the paper's
laptop: one browser on host ``client``, attached before the origins. A
spec with ``users`` is a city: ``user-0`` … attached after them, each
browsing its own plan from its own arrival time. Both build one
:class:`World`; a one-user world is a city of one.

Creation order is part of the result (host order fixes interface ids,
listener order fixes same-instant event order), so :func:`build` keeps
the one every battery used: Internet; origin hosts, servers, reverse
proxies and DNS records; client hosts; browsers; admission sizing; the
tracer. ``tests/experiments/test_world_fingerprint.py`` pins it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.core.browser.brave import BraveBrowser
from repro.core.browser.page import content_for_origin
from repro.dns.resolver import Resolver
from repro.http.reverse_proxy import ScionReverseProxy
from repro.http.server import HttpServer
from repro.internet.build import Internet


@dataclass(frozen=True)
class Calibration:
    """Per-request overheads of the prototype detour, DNS latency and
    host-link jitter. Extension and proxy processing serialize across
    concurrent requests, so a proxied N-resource page pays about
    N × (extension + proxy): the defaults charge ~20 ms a request, the
    ~100 ms penalty §5.2 measured on its laptop."""

    extension_overhead_ms: float = 1.5
    ipc_latency_ms: float = 0.6
    proxy_processing_ms: float = 6.0
    dns_latency_ms: float = 0.4
    host_jitter_ms: float = 0.15


@dataclass(frozen=True)
class Origin:
    """One origin: its DNS name, its TCP/IP server's host, and the role
    (an attribute of the testbed's AS record) of its AS. It speaks SCION
    itself when ``quic`` is set, or through a reverse proxy on host
    ``proxy`` that advertises ``Strict-SCION`` for ``max_age`` seconds."""

    name: str
    host: str
    placement: str
    quic: bool = False
    proxy: str | None = None
    max_age: int | None = None


@dataclass(frozen=True)
class WorldSpec:
    """One world as data (see the module docstring)."""

    #: ``() -> (topology, ases)``: ``ases.client`` is the client AS.
    testbed: Callable[[], tuple[Any, Any]]
    origins: tuple[Origin, ...]
    calibration: Calibration
    #: Every browser's settings; ``None`` keeps the proxy's default.
    extension: bool = True
    strict: bool = False
    policies: tuple = ()
    request_timeout_ms: float | None = None
    #: Attempts per route family, SCION and IP alike.
    max_attempts: int | None = None
    #: ``(capacity, refill_per_sec)`` of the retry-budget bucket.
    retry_budget: tuple[float, float] | None = None
    #: The one user's page, which the origins serve ...
    page: Any = None
    #: ... or a city's catalog and one ``(plan, arrival_ms)`` per user.
    catalog: Any = None
    users: tuple = ()
    #: ``(capacity_qps, max_queue_depth)`` of the shared path server.
    admission: tuple[float, int] | None = None
    #: ``None`` defers to ``REPRO_FASTPATH`` / ``REPRO_REVOCATION``.
    fastpath: bool | None = None
    revocation: bool | None = None


@dataclass
class World:
    """One freshly-built world."""

    internet: Any
    #: ``(user_id, browser, plan-or-page, arrival_ms)`` per user.
    users: list
    #: Observability tracer, present when built with ``obs=True``.
    tracer: Any = None
    catalog: Any = None
    #: The testbed's AS record and the origin servers in spec order.
    ases: Any = None
    servers: tuple = ()
    #: The scenario's sizing record, where it has one (overload).
    config: Any = None

    def close(self) -> None:
        """Finish the world (:meth:`Internet.close`): everything a
        sample reads stays readable, and the world is freed by
        reference counting once its last reference goes."""
        self.internet.close()

    @property
    def browser(self):
        """The browser of a one-user world."""
        (user,) = self.users
        return user[1]

    @property
    def page(self):
        """The page of a one-user world."""
        (user,) = self.users
        return user[2]


def _serve(internet, resolver, ases, origin: Origin, content) -> HttpServer:
    isd_as = getattr(ases, origin.placement)
    host = internet.add_host(origin.host, isd_as)
    proxy = internet.add_host(origin.proxy, isd_as) if origin.proxy else None
    server = HttpServer(host, content, serve_tcp=True, serve_quic=origin.quic)
    scion = host.addr if origin.quic else None
    if proxy is not None:
        ScionReverseProxy(proxy, host.addr,
                          advertise_strict_scion_max_age=origin.max_age)
        scion = proxy.addr
    resolver.register_host(origin.name, ip_address=host.addr,
                           scion_address=scion)
    return server


def _browser(host, resolver, spec: WorldSpec, rng) -> BraveBrowser:
    calibration = spec.calibration
    browser = BraveBrowser(
        host, resolver, extension_enabled=spec.extension,
        proxy_processing_ms=calibration.proxy_processing_ms,
        extension_overhead_ms=calibration.extension_overhead_ms,
        ipc_latency_ms=calibration.ipc_latency_ms, rng=rng)
    browser.settings.extra_policies.extend(spec.policies)
    browser.extension.apply_settings()
    if spec.strict:
        browser.extension.enable_strict_mode()
    proxy = browser.proxy
    if spec.request_timeout_ms is not None:
        proxy.request_timeout_ms = spec.request_timeout_ms
    if spec.max_attempts is not None:
        proxy.max_scion_attempts = proxy.max_ip_attempts = spec.max_attempts
    if spec.retry_budget is not None:
        proxy.retry_budget.configure(*spec.retry_budget)
    return browser


def build(spec: WorldSpec, seed: int, obs: bool = False) -> World:
    """Assemble ``spec`` from ``seed``; ``obs=True`` attaches a tracer
    across every browser stack (``world.tracer``)."""
    topology, ases = spec.testbed()
    internet = Internet(topology, seed=seed,
                        host_jitter_ms=spec.calibration.host_jitter_ms,
                        revocation=spec.revocation, fastpath=spec.fastpath)
    resolver = Resolver(internet.loop,
                        lookup_latency_ms=spec.calibration.dns_latency_ms)
    laptop = spec.page is not None
    hosts = [internet.add_host("client", ases.client)] if laptop else []
    servers = tuple(
        _serve(internet, resolver, ases, origin,
               content_for_origin(spec.page, origin.name) if laptop
               else spec.catalog.origin_content(origin.name))
        for origin in spec.origins)
    if not laptop:
        hosts = internet.add_population("user", ases.client, len(spec.users))
    plans = [(spec.page, 0.0)] if laptop else spec.users
    users = [(user_id, _browser(host, resolver, spec, internet.network.rng),
              plan, arrival_ms)
             for user_id, (host, (plan, arrival_ms))
             in enumerate(zip(hosts, plans))]
    if spec.admission is not None:
        admission = internet.path_server.admission
        admission.capacity_qps, admission.max_queue_depth = spec.admission
    tracer = None
    if obs:
        # One tracer across every browser stack, the revocation service
        # and the fast path. Tracing is inert: PLTs are bit-identical.
        from repro.obs.spans import Tracer

        tracer = Tracer(internet.loop)
        for user in users:
            user[1].attach_tracer(tracer)
        internet.revocations.tracer = tracer
        if internet.fastpath is not None:
            internet.fastpath.tracer = tracer
    return World(internet, users, tracer=tracer, catalog=spec.catalog,
                 ases=ases, servers=servers)
