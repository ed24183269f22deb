"""Every browser world, pinned by what it is made of.

Builds one small world of each kind the batteries run — the four
Figure 3 conditions, the far and near remote testbeds, the fault world
in both modes, a six-user city, a twelve-user flash crowd and one
Ablation C point — and digests what went into it: hosts and addresses
in creation order, server listeners, reverse proxies, resolver entries,
per-browser settings and the admission sizing. The components are
recorded as they are constructed, so the digest does not depend on
which function assembled the world or what it returns.

A moved pin means a world is built differently: a host, a listener, a
DNS record or a browser setting changed, or their creation order did
(which moves addresses, interface ids and, through the shared data-plane
stream, every simulated number downstream). The Ablation C point runs a
load while it is built, so its pin also holds the loop's event counts:
it was re-recorded when a router's forwarding step joined its packet's
arrival event and a socket reader began to run in the delivery event
(421 -> 310 entries scheduled, 408 -> 297 processed; nothing else moved).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.browser.brave import BraveBrowser
from repro.dns.resolver import Resolver
from repro.experiments import (fault_battery, local_setup, overload,
                               paper_ablations, population, remote_setup)
from repro.http.reverse_proxy import ScionReverseProxy
from repro.http.server import HttpServer
from repro.internet.build import Internet

RECORDED = (Internet, HttpServer, ScionReverseProxy, Resolver, BraveBrowser)


def _fig3(condition):
    def build():
        seed = 100
        local_setup.build_local_world(
            local_setup.make_page(condition, 12, seed), seed,
            extension_enabled=condition != "BGP/IP-only",
            strict=condition == "strict-SCION")
    return build


def _remote(primary):
    def build():
        seed = 500
        remote_setup.build_remote_world(
            remote_setup.make_remote_page(primary, multi_origin=True,
                                          n_resources=9, seed=seed), seed)
    return build


WORLDS = {
    **{f"figure3/{condition}": _fig3(condition)
       for condition in local_setup.FIGURE3_CONDITIONS},
    "remote/far": _remote(remote_setup.FAR_ORIGIN),
    "remote/near": _remote(remote_setup.NEAR_ORIGIN),
    "fault/opportunistic": lambda: fault_battery.build_fault_world(500),
    "fault/strict": lambda: fault_battery.build_fault_world(500, strict=True),
    "population/6": lambda: population.build_population_world(
        "opportunistic-SCION", 900, users=6),
    "overload/12": lambda: overload.build_overload_world(
        1200, dataclasses.replace(overload.DEFAULT_CONFIG, users=12)),
    "ablation-c/0.5-strict": lambda: paper_ablations.ablation_c_point(
        0.5, "strict"),
}

PINS = {
    "figure3/SCION-only": "c7a00a3ef03a26a3",
    "figure3/mixed SCION-IP": "d389b38519e17a6c",
    "figure3/strict-SCION": "bb7696361a0681b3",
    "figure3/BGP/IP-only": "0d4a40dda094a72d",
    "remote/far": "b812c2fc5456bd8c",
    "remote/near": "4a88518f388343c3",
    "fault/opportunistic": "f3554202a9f74cd8",
    "fault/strict": "0fa0206d500669a6",
    "population/6": "d081126133920761",
    "overload/12": "a7e2d8b6afa9bfe5",
    # Re-pinned when a request's watchdog became an interrupting timer
    # and a free CPU unit stopped costing a wake-up: only "scheduled"
    # (310 -> 277) and "events_processed" (297 -> 264) moved.
    "ablation-c/0.5-strict": "affc66dbb6fb8e85",
}


@pytest.fixture
def made(monkeypatch):
    """Every recorded component constructed during the test, by class,
    in construction order."""
    made = {cls: [] for cls in RECORDED}
    for cls in RECORDED:
        def init(self, *args, _init=cls.__init__, _made=made[cls],
                 **kwargs):
            _init(self, *args, **kwargs)
            _made.append(self)
        monkeypatch.setattr(cls, "__init__", init)
    return made


def _port(listener):
    return None if listener is None else listener.port


def _index(items, item):
    return next(index for index, candidate in enumerate(items)
                if candidate is item)


def fingerprint(made) -> dict:
    """What one world was built from, as JSON-ready data."""
    (internet,) = made[Internet]
    resolvers = made[Resolver]
    admission = internet.path_server.admission
    return {
        "topology": internet.topology.name,
        "host_jitter_ms": internet.host_jitter_ms,
        "fastpath": internet.fastpath is not None,
        "revocation": internet.revocations.enabled,
        "hosts": [(name, str(host.addr))
                  for name, host in internet.hosts.items()],
        "servers": [(server.host.name, _port(server.tcp_listener),
                     _port(server.quic_listener),
                     server.strict_scion_max_age,
                     str(server.advertise_scion_address),
                     len(server.content))
                    for server in made[HttpServer]],
        "reverse_proxies": [(proxy.host.name, str(proxy.backend),
                             proxy.backend_port, proxy.listener.port,
                             proxy.advertise_strict_scion_max_age)
                            for proxy in made[ScionReverseProxy]],
        "resolvers": [(resolver.lookup_latency_ms,
                       [(record.name, record.record_type.value,
                         record.value, record.ttl_s)
                        for records in resolver._zone.values()
                        for record in records])
                      for resolver in resolvers],
        "browsers": [(browser.host.name, _index(resolvers, browser.resolver),
                      browser.extension_enabled,
                      browser.settings.strict_mode_global,
                      sorted(browser.settings.strict_sites),
                      [repr(policy)
                       for policy in browser.settings.extra_policies],
                      repr(browser.proxy.policy),
                      browser.extension.extension_overhead_ms,
                      browser.extension.ipc_latency_ms,
                      browser.proxy.processing_ms,
                      browser.proxy.request_timeout_ms,
                      browser.proxy.max_scion_attempts,
                      browser.proxy.max_ip_attempts,
                      browser.proxy.retry_budget.capacity,
                      browser.proxy.retry_budget.refill_per_sec,
                      browser.proxy.rng is internet.network.rng)
                     for browser in made[BraveBrowser]],
        "admission": (admission.capacity_qps, admission.max_queue_depth),
        # Listeners schedule their first step as they are made, so the
        # entries scheduled so far see creation order too.
        "scheduled": internet.loop._sequence,
        "events_processed": internet.loop.events_processed,
    }


def digest(data: dict) -> str:
    text = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_every_world_is_pinned():
    assert set(WORLDS) == set(PINS)


@pytest.mark.parametrize("name", WORLDS)
def test_world_fingerprint(name, made):
    WORLDS[name]()
    data = fingerprint(made)
    assert digest(data) == PINS[name], json.dumps(data, indent=1,
                                                  default=str)
