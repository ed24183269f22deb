"""The distributed testbed (Figures 4, 5 and 6).

The client browses from an AS in ISD 1. Origin servers are legacy
TCP/IP hosts, each fronted by a SCION reverse proxy in its own AS
(Figure 4: "a TCP/IP server that is also reachable over a nearby SCION
reverse proxy"):

* ``far.example`` — in the remote ISD 2 AS. The BGP route to it crosses
  the slow direct core link (75 ms), while SCION offers a faster
  two-segment detour through ISD 3 (46 ms) that a latency-aware policy
  picks. **Figure 5**: PLT over SCION beats PLT over IPv4/6.
* ``near.example`` / ``near2.example`` — in the AS-local-ish nearby AS
  (a few ms away), where SCION and BGP paths coincide. **Figure 6**:
  the extension+proxy detour adds a small overhead over the baseline.
* ``cdn.example`` — a third origin in ISD 3 for the multiple-origins
  page variants.

Each figure compares single-origin and multiple-origins pages, loaded
with the extension enabled (SCION) and disabled (IPv4/6), in fresh
worlds per trial.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.browser.brave import BraveBrowser
from repro.core.browser.page import WebPage, content_for_origin, synthetic_page
from repro.core.ppl.policies import latency_optimized
from repro.dns.resolver import Resolver
from repro.experiments.harness import (Battery, World, attach_tracer,
                                       load_page, plt_result)
from repro.http.reverse_proxy import ScionReverseProxy
from repro.http.server import HttpServer
from repro.internet.build import Internet
from repro.topology.defaults import remote_testbed

#: Origin host names.
FAR_ORIGIN = "far.example"
NEAR_ORIGIN = "near.example"
NEAR2_ORIGIN = "near2.example"
CDN_ORIGIN = "cdn.example"

#: Conditions of Figures 5 and 6, in presentation order.
REMOTE_CONDITIONS = ("single origin / SCION", "single origin / IPv4-6",
                     "multiple origins / SCION", "multiple origins / IPv4-6")

#: Subresources of the remote pages.
N_RESOURCES = 9


@dataclass(frozen=True)
class RemoteCalibration:
    """Overhead and environment knobs for the distributed setup."""

    extension_overhead_ms: float = 1.5
    ipc_latency_ms: float = 0.6
    proxy_processing_ms: float = 6.0
    dns_latency_ms: float = 4.0
    host_jitter_ms: float = 0.3


DEFAULT_REMOTE_CALIBRATION = RemoteCalibration()


def make_remote_page(primary: str, multi_origin: bool, n_resources: int,
                     seed: int) -> WebPage:
    """A page on ``primary``, optionally pulling from other origins."""
    if not multi_origin:
        return synthetic_page(primary, n_resources=n_resources, seed=seed)
    extra = {CDN_ORIGIN: n_resources // 3,
             (NEAR2_ORIGIN if primary == NEAR_ORIGIN else NEAR_ORIGIN):
                 n_resources // 3}
    own = n_resources - sum(extra.values())
    return synthetic_page(primary, n_resources=own, third_party=extra,
                          seed=seed)


def place_origins(internet: Internet, resolver: Resolver, ases,
                  content_for) -> None:
    """The four origins of Figure 4: each a legacy TCP/IP server fronted
    by a SCION reverse proxy in its own AS, serving
    ``content_for(origin)``."""
    placements = {
        FAR_ORIGIN: ases.remote_server,
        NEAR_ORIGIN: ases.nearby_server,
        NEAR2_ORIGIN: ases.nearby_server,
        CDN_ORIGIN: ases.third_server,
    }
    for origin, isd_as in placements.items():
        label = origin.split(".")[0]
        server_host = internet.add_host(f"origin-{label}", isd_as)
        rp_host = internet.add_host(f"rp-{label}", isd_as)
        HttpServer(server_host, content_for(origin),
                   serve_tcp=True, serve_quic=False)
        ScionReverseProxy(rp_host, server_host.addr,
                          advertise_strict_scion_max_age=3600)
        resolver.register_host(origin, ip_address=server_host.addr,
                               scion_address=rp_host.addr)


def build_remote_world(page: WebPage, seed: int,
                       calibration: RemoteCalibration = DEFAULT_REMOTE_CALIBRATION,
                       extension_enabled: bool = True,
                       obs: bool = False) -> World:
    """Assemble a fresh distributed testbed serving ``page``."""
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=seed,
                        host_jitter_ms=calibration.host_jitter_ms)
    client = internet.add_host("client", ases.client)
    resolver = Resolver(internet.loop,
                        lookup_latency_ms=calibration.dns_latency_ms)
    place_origins(internet, resolver, ases,
                  functools.partial(content_for_origin, page))

    browser = BraveBrowser(
        client, resolver,
        extension_enabled=extension_enabled,
        proxy_processing_ms=calibration.proxy_processing_ms,
        extension_overhead_ms=calibration.extension_overhead_ms,
        ipc_latency_ms=calibration.ipc_latency_ms,
        rng=internet.network.rng,
    )
    # The path-aware part of the experiment: prefer low-latency paths
    # (this is what lets SCION pick the detour in Figure 5).
    browser.settings.extra_policies.append(latency_optimized())
    browser.extension.apply_settings()
    return World(internet, browser, page,
                 tracer=attach_tracer(internet, browser) if obs else None)


def remote_load(primary: str, condition: str, seed: int,
                n_resources: int = N_RESOURCES,
                calibration: RemoteCalibration = DEFAULT_REMOTE_CALIBRATION,
                obs: bool = False):
    """One load of Figure 5 (``primary=FAR_ORIGIN``) or Figure 6
    (``primary=NEAR_ORIGIN``) in a fresh world; returns ``(world,
    result)``."""
    page = make_remote_page(primary,
                            multi_origin=condition.startswith("multiple"),
                            n_resources=n_resources, seed=seed)
    world = build_remote_world(page, seed, calibration=calibration,
                               extension_enabled=condition.endswith("SCION"),
                               obs=obs)
    return world, load_page(world)


def remote_trial(primary: str, condition: str, seed: int, **params) -> float:
    """One Figure 5 / Figure 6 trial; returns the PLT in ms."""
    return remote_load(primary, condition, seed, **params)[1].plt_ms


def _gain_ms(result) -> float:
    """Single-origin median PLT saved by loading over SCION (negative:
    SCION costs an overhead)."""
    return (result.median("single origin / IPv4-6")
            - result.median("single origin / SCION"))


def _measured(result, word: str, delta_ms: float) -> str:
    return (f"SCION {result.median('single origin / SCION'):.0f} ms vs "
            f"IPv4/6 {result.median('single origin / IPv4-6'):.0f} ms "
            f"({word} {delta_ms:.0f} ms)")


def _remote_battery(primary: str, base_seed: int, result_name: str,
                    setting: str, note: str, **declared) -> Battery:
    """What Figures 5 and 6 share — conditions, trial count, the traced
    cell; they differ in primary origin, base seed and prose."""

    def assemble(trials, rows_by_cell, n_resources=N_RESOURCES, **_params):
        return plt_result(
            result_name, f"{trials} trials/condition, {n_resources} "
            f"resources; {setting}", rows_by_cell, note)

    return Battery(
        assemble=assemble,
        cells=tuple((condition,) for condition in REMOTE_CONDITIONS),
        trial=functools.partial(remote_trial, primary),
        base_seed=base_seed, trials=20,
        traced=functools.partial(remote_load, primary, obs=True),
        traced_cell=("single origin / SCION",), **declared)


FIGURE5 = _remote_battery(
    FAR_ORIGIN, 500, "Figure 5 — remote page PLT (SCION vs IPv4/6)",
    "BGP routes over a 75 ms direct link, SCION detours via ISD 3 (46 ms)",
    "expected shape: SCION significantly faster than IPv4/6 for both "
    "page variants (path-aware low-latency path selection)",
    name="figure5", label="Figure 5", title="Figure 5 — remote pages",
    claim="remote page loads significantly faster over SCION "
          "(path-aware low-latency path)",
    measured=lambda result: _measured(result, "gain", _gain_ms(result)),
    holds=lambda result: _gain_ms(result) > 0)

FIGURE6 = _remote_battery(
    NEAR_ORIGIN, 600, "Figure 6 — AS-local page PLT (SCION vs IPv4/6)",
    "SCION and BGP paths coincide (≈5.6 ms one-way)",
    "expected shape: SCION slightly slower than IPv4/6 (similar paths, "
    "small extension+proxy overhead)",
    name="figure6", label="Figure 6", title="Figure 6 — AS-local pages",
    claim="AS-local page: SCION adds a small overhead, paths similar",
    measured=lambda result: _measured(result, "overhead", -_gain_ms(result)),
    holds=lambda result: _gain_ms(result) < 0)
