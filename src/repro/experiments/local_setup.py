"""The local testbed (Figures 2 and 3).

Everything on "one laptop": the browser host, the SCION file server and
the TCP/IP file server live in a single AS with loopback-grade
(sub-millisecond, lightly jittered) links, so PLT differences isolate
the extension + proxy detour — the quantity Figure 3 reports.

Four experiment conditions, exactly as §5.2 defines them:

* **SCION-only** — every resource on the SCION FS; extension enabled.
* **mixed SCION-IP** — resources on both servers; extension enabled.
* **strict-SCION** — strict mode; only one resource on the SCION FS, the
  rest on the TCP/IP FS and therefore blocked.
* **BGP/IP-only** — extension disabled; no interception, no proxy.

Overhead calibration: the defaults below charge ~20 ms of combined
extension + IPC + proxy time per request, reproducing the ~100 ms PLT
penalty the paper measured on its laptop for fully-proxied loads. The
knobs are explicit so Ablation A can sweep them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.browser.brave import BraveBrowser
from repro.core.browser.page import WebPage, content_for_origin, synthetic_page
from repro.dns.resolver import Resolver
from repro.experiments.harness import (Battery, World, attach_tracer,
                                       load_page, mean, plt_result)
from repro.http.server import HttpServer
from repro.internet.build import Internet
from repro.topology.defaults import LOCAL_AS, local_testbed

#: Origin names of the two file servers (Figure 2).
SCION_ORIGIN = "scion-fs.local"
IP_ORIGIN = "tcpip-fs.local"

#: The four Figure 3 conditions, in the paper's order.
FIGURE3_CONDITIONS = ("SCION-only", "mixed SCION-IP", "strict-SCION",
                      "BGP/IP-only")

#: Subresources of the local static site.
N_RESOURCES = 12


@dataclass(frozen=True)
class LocalCalibration:
    """Per-request overhead knobs for the prototype detour.

    Extension processing and proxy processing are *serialized* across
    concurrent requests (single-threaded JS event loop; proxy CPU), so
    for an N-resource page the proxied-load penalty grows like
    N × (extension + proxy) — which is why blocked strict-mode requests,
    skipping the proxy data path, shorten PLT (Figure 3).
    """

    extension_overhead_ms: float = 1.5
    ipc_latency_ms: float = 0.6
    proxy_processing_ms: float = 6.0
    dns_latency_ms: float = 0.4
    host_jitter_ms: float = 0.15


DEFAULT_CALIBRATION = LocalCalibration()


def make_page(condition: str, n_resources: int, seed: int) -> WebPage:
    """The static site for one Figure 3 condition."""
    if condition == "SCION-only":
        return synthetic_page(SCION_ORIGIN, n_resources=n_resources,
                              seed=seed)
    if condition in ("mixed SCION-IP", "BGP/IP-only"):
        half = n_resources // 2
        return synthetic_page(SCION_ORIGIN, n_resources=half,
                              third_party={IP_ORIGIN: n_resources - half},
                              seed=seed)
    if condition == "strict-SCION":
        return synthetic_page(SCION_ORIGIN, n_resources=1,
                              third_party={IP_ORIGIN: n_resources - 1},
                              seed=seed)
    raise ValueError(f"unknown condition {condition!r}")


def build_local_world(page: WebPage, seed: int,
                      calibration: LocalCalibration = DEFAULT_CALIBRATION,
                      extension_enabled: bool = True,
                      strict: bool = False,
                      obs: bool = False) -> World:
    """Assemble a fresh laptop world serving ``page``.

    ``obs=True`` attaches a :class:`~repro.obs.spans.Tracer` across the
    whole browser stack (``world.tracer``).
    """
    internet = Internet(local_testbed(), seed=seed,
                        host_jitter_ms=calibration.host_jitter_ms)
    client = internet.add_host("client", LOCAL_AS)
    scion_fs = internet.add_host("scion-fs", LOCAL_AS)
    ip_fs = internet.add_host("tcpip-fs", LOCAL_AS)

    HttpServer(scion_fs, content_for_origin(page, SCION_ORIGIN),
               serve_tcp=True, serve_quic=True)
    HttpServer(ip_fs, content_for_origin(page, IP_ORIGIN),
               serve_tcp=True, serve_quic=False)

    resolver = Resolver(internet.loop,
                        lookup_latency_ms=calibration.dns_latency_ms)
    resolver.register_host(SCION_ORIGIN, ip_address=scion_fs.addr,
                           scion_address=scion_fs.addr)
    resolver.register_host(IP_ORIGIN, ip_address=ip_fs.addr)

    browser = BraveBrowser(
        client, resolver,
        extension_enabled=extension_enabled,
        proxy_processing_ms=calibration.proxy_processing_ms,
        extension_overhead_ms=calibration.extension_overhead_ms,
        ipc_latency_ms=calibration.ipc_latency_ms,
        rng=internet.network.rng,
    )
    if strict:
        browser.extension.enable_strict_mode()
    return World(internet, browser, page,
                 tracer=attach_tracer(internet, browser) if obs else None)


def load_once(world: World) -> float:
    """Run the page load to completion; returns the PLT in ms."""
    return load_page(world).plt_ms


def figure3_load(condition: str, seed: int, n_resources: int = N_RESOURCES,
                 calibration: LocalCalibration = DEFAULT_CALIBRATION,
                 obs: bool = False):
    """One Figure 3 load in a fresh world; returns ``(world, result)``.

    With ``obs=True`` ``world.tracer`` holds the span tree and metrics
    of the load — artifact export and the waterfall acceptance tests
    start here.
    """
    world = build_local_world(
        make_page(condition, n_resources, seed), seed,
        calibration=calibration,
        extension_enabled=condition != "BGP/IP-only",
        strict=condition == "strict-SCION",
        obs=obs,
    )
    return world, load_page(world)


def figure3_trial(condition: str, seed: int, **params) -> float:
    """One Figure 3 trial: fresh world, one page load, PLT out."""
    return figure3_load(condition, seed, **params)[1].plt_ms


def figure3_trial_events(condition: str, seed: int,
                         **params) -> tuple[float, float]:
    """One Figure 3 trial returning ``(plt_ms, loop events processed)``."""
    world, result = figure3_load(condition, seed, **params)
    return result.plt_ms, float(world.internet.loop.events_processed)


def _assemble(trials: int, rows_by_cell, n_resources: int = N_RESOURCES,
              **_params):
    return plt_result(
        "Figure 3 — local setup Page Load Time",
        f"{trials} trials/condition, {n_resources} resources, "
        "loopback-grade links; PLT in ms", rows_by_cell,
        "expected shape: SCION-only ≈ mixed > strict-SCION and "
        "BGP/IP-only (proxied loads pay the extension+proxy detour; "
        "strict blocks most resources)")


def _overhead_ms(figure3) -> float:
    return figure3.median("SCION-only") - figure3.median("BGP/IP-only")


def figure3_holds(figure3) -> bool:
    """Whether the detour costs "approximately 100 ms" (the 50–200 ms
    band) and strict mode, blocking most resources, loads faster than
    SCION-only."""
    return (50 <= _overhead_ms(figure3) <= 200
            and figure3.median("strict-SCION") < figure3.median("SCION-only"))


FIGURE3 = Battery(
    name="figure3", label="Figure 3", title="Figure 3 — local setup PLT",
    claim="SCION-only ≈ mixed ≈ baseline + ~100 ms; strict shorter "
          "(blocks skip the proxy)",
    measured=lambda figure3: (
        f"overhead {_overhead_ms(figure3):.0f} ms; strict "
        f"{figure3.median('strict-SCION'):.0f} ms vs SCION-only "
        f"{figure3.median('SCION-only'):.0f} ms"),
    holds=figure3_holds, assemble=_assemble,
    cells=tuple((condition,) for condition in FIGURE3_CONDITIONS),
    trial=figure3_trial, base_seed=100, trials=30,
    traced=functools.partial(figure3_load, obs=True),
    traced_cell=("mixed SCION-IP",),
    score_trial=figure3_trial_events,
    reducers=(("plt_ms", mean), ("events_total", sum)),
)
