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
from repro.experiments.harness import (ExperimentResult, PendingExperiment,
                                       submit_samples)
from repro.http.reverse_proxy import ScionReverseProxy
from repro.http.server import HttpServer
from repro.internet.build import Internet
from repro.obs.spans import Tracer
from repro.topology.defaults import remote_testbed

#: Origin host names.
FAR_ORIGIN = "far.example"
NEAR_ORIGIN = "near.example"
NEAR2_ORIGIN = "near2.example"
CDN_ORIGIN = "cdn.example"

#: Conditions of Figures 5 and 6, in presentation order.
REMOTE_CONDITIONS = ("single origin / SCION", "single origin / IPv4-6",
                     "multiple origins / SCION", "multiple origins / IPv4-6")


@dataclass(frozen=True)
class RemoteCalibration:
    """Overhead and environment knobs for the distributed setup."""

    extension_overhead_ms: float = 1.5
    ipc_latency_ms: float = 0.6
    proxy_processing_ms: float = 6.0
    dns_latency_ms: float = 4.0
    host_jitter_ms: float = 0.3


DEFAULT_REMOTE_CALIBRATION = RemoteCalibration()


@dataclass
class RemoteWorld:
    """One freshly-built distributed testbed."""

    internet: Internet
    browser: BraveBrowser
    page: WebPage
    #: Observability tracer, present when built with ``obs=True``.
    tracer: Tracer | None = None


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


def build_remote_world(page: WebPage, seed: int,
                       calibration: RemoteCalibration = DEFAULT_REMOTE_CALIBRATION,
                       extension_enabled: bool = True,
                       obs: bool = False) -> RemoteWorld:
    """Assemble a fresh distributed testbed serving ``page``."""
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=seed,
                        host_jitter_ms=calibration.host_jitter_ms)
    client = internet.add_host("client", ases.client)
    resolver = Resolver(internet.loop,
                        lookup_latency_ms=calibration.dns_latency_ms)

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
        HttpServer(server_host, content_for_origin(page, origin),
                   serve_tcp=True, serve_quic=False)
        ScionReverseProxy(rp_host, server_host.addr,
                          advertise_strict_scion_max_age=3600)
        resolver.register_host(origin, ip_address=server_host.addr,
                               scion_address=rp_host.addr)

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
    tracer = None
    if obs:
        tracer = Tracer(internet.loop)
        browser.attach_tracer(tracer)
        if internet.fastpath is not None:
            internet.fastpath.attach_tracer(tracer)
    return RemoteWorld(internet=internet, browser=browser, page=page,
                       tracer=tracer)


def remote_trial(primary: str, condition: str, seed: int,
                 n_resources: int = 9,
                 calibration: RemoteCalibration = DEFAULT_REMOTE_CALIBRATION,
                 obs: bool = False) -> float:
    """One trial of Figure 5 (``primary=FAR_ORIGIN``) or Figure 6
    (``primary=NEAR_ORIGIN``); returns the PLT in ms."""
    multi = condition.startswith("multiple")
    over_scion = condition.endswith("SCION")
    page = make_remote_page(primary, multi_origin=multi,
                            n_resources=n_resources, seed=seed)
    world = build_remote_world(page, seed, calibration=calibration,
                               extension_enabled=over_scion, obs=obs)
    result = world.internet.loop.run_process(world.browser.load(world.page))
    return result.plt_ms


def traced_remote_load(condition: str = "single origin / SCION",
                       seed: int = 500, n_resources: int = 9,
                       primary: str = FAR_ORIGIN,
                       calibration: RemoteCalibration = DEFAULT_REMOTE_CALIBRATION
                       ) -> tuple[RemoteWorld, float]:
    """One traced remote load; returns ``(world, plt_ms)``."""
    multi = condition.startswith("multiple")
    over_scion = condition.endswith("SCION")
    page = make_remote_page(primary, multi_origin=multi,
                            n_resources=n_resources, seed=seed)
    world = build_remote_world(page, seed, calibration=calibration,
                               extension_enabled=over_scion, obs=True)
    result = world.internet.loop.run_process(world.browser.load(world.page))
    return world, result.plt_ms


def _submit_remote(primary: str, result: ExperimentResult, trials: int,
                   n_resources: int, calibration: RemoteCalibration,
                   base_seed: int, workers: int | None) -> PendingExperiment:
    pending = PendingExperiment(result)
    seeds = range(base_seed, base_seed + trials)
    for condition in REMOTE_CONDITIONS:
        pending.add_pending(condition, submit_samples(
            functools.partial(remote_trial, primary, condition,
                              n_resources=n_resources,
                              calibration=calibration),
            seeds, workers=workers))
    return pending


def submit_figure5(trials: int = 20, n_resources: int = 9,
                   calibration: RemoteCalibration = DEFAULT_REMOTE_CALIBRATION,
                   base_seed: int = 500,
                   workers: int | None = None) -> PendingExperiment:
    """Submit every Figure 5 condition battery to the shared pool."""
    result = ExperimentResult(
        name="Figure 5 — remote page PLT (SCION vs IPv4/6)",
        description=(f"{trials} trials/condition, {n_resources} resources; "
                     "BGP routes over a 75 ms direct link, SCION detours "
                     "via ISD 3 (46 ms)"),
    )
    result.notes.append(
        "expected shape: SCION significantly faster than IPv4/6 for both "
        "page variants (path-aware low-latency path selection)")
    return _submit_remote(FAR_ORIGIN, result, trials, n_resources,
                          calibration, base_seed, workers)


def run_figure5(trials: int = 20, n_resources: int = 9,
                calibration: RemoteCalibration = DEFAULT_REMOTE_CALIBRATION,
                base_seed: int = 500,
                workers: int | None = None) -> ExperimentResult:
    """Reproduce Figure 5: remote pages over SCION vs IPv4/6."""
    return submit_figure5(trials=trials, n_resources=n_resources,
                          calibration=calibration, base_seed=base_seed,
                          workers=workers).collect()


def submit_figure6(trials: int = 20, n_resources: int = 9,
                   calibration: RemoteCalibration = DEFAULT_REMOTE_CALIBRATION,
                   base_seed: int = 600,
                   workers: int | None = None) -> PendingExperiment:
    """Submit every Figure 6 condition battery to the shared pool."""
    result = ExperimentResult(
        name="Figure 6 — AS-local page PLT (SCION vs IPv4/6)",
        description=(f"{trials} trials/condition, {n_resources} resources; "
                     "SCION and BGP paths coincide (≈5.6 ms one-way)"),
    )
    result.notes.append(
        "expected shape: SCION slightly slower than IPv4/6 (similar paths, "
        "small extension+proxy overhead)")
    return _submit_remote(NEAR_ORIGIN, result, trials, n_resources,
                          calibration, base_seed, workers)


def run_figure6(trials: int = 20, n_resources: int = 9,
                calibration: RemoteCalibration = DEFAULT_REMOTE_CALIBRATION,
                base_seed: int = 600,
                workers: int | None = None) -> ExperimentResult:
    """Reproduce Figure 6: AS-local pages over SCION vs IPv4/6."""
    return submit_figure6(trials=trials, n_resources=n_resources,
                          calibration=calibration, base_seed=base_seed,
                          workers=workers).collect()
