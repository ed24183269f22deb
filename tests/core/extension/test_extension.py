"""The browser extension: settings, interception, strict gating."""

import pytest

from repro.core.extension.extension import BrowserExtension, ExtensionSettings
from repro.core.extension.ui import PageIndicator
from repro.core.geofence import Geofence
from repro.core.ppl.evaluator import CompositePolicy
from repro.core.ppl.policies import co2_optimized
from repro.core.skip.proxy import ProxyResult, SkipProxy
from repro.dns.resolver import Resolver
from repro.http.message import Headers, HttpRequest, HttpResponse, ResourceData
from repro.http.server import HttpServer
from repro.internet.build import Internet
from repro.scion.addr import HostAddr
from repro.topology.defaults import remote_testbed

CONTENT = {"/x.html": ResourceData(size=2_000)}


@pytest.fixture
def world():
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=15)
    client = internet.add_host("client", ases.client)
    dual = internet.add_host("dual", ases.remote_server)
    legacy = internet.add_host("legacy", ases.nearby_server)
    pinned = internet.add_host("pinned", ases.remote_server)
    HttpServer(dual, CONTENT, serve_tcp=True, serve_quic=True)
    HttpServer(legacy, CONTENT, serve_tcp=True, serve_quic=False)
    HttpServer(pinned, CONTENT, serve_tcp=True, serve_quic=True,
               strict_scion_max_age=30)
    resolver = Resolver(internet.loop, lookup_latency_ms=1.0)
    resolver.register_host("dual.example", ip_address=dual.addr,
                           scion_address=dual.addr)
    resolver.register_host("legacy.example", ip_address=legacy.addr)
    resolver.register_host("pinned.example", ip_address=pinned.addr,
                           scion_address=pinned.addr)
    proxy = SkipProxy(client, resolver, processing_ms=1.0)
    extension = BrowserExtension(proxy)
    return internet, extension


def get(host):
    return HttpRequest(method="GET", host=host, path="/x.html",
                       headers=Headers())


def handle(internet, extension, host, indicator=None):
    def main():
        outcome = yield from extension.handle_request(get(host), indicator)
        return outcome

    return internet.loop.run_process(main())


class TestSettings:
    def test_no_settings_means_no_policy(self, world):
        _internet, extension = world
        assert extension.proxy.policy is None

    def test_geofence_compiles_to_single_policy(self, world):
        _internet, extension = world
        extension.set_geofence(Geofence(blocked_isds={3}))
        assert extension.proxy.policy is not None
        assert extension.proxy.policy.name == "geofence"

    def test_geofence_plus_extra_policy_combines(self, world):
        _internet, extension = world
        extension.settings.extra_policies.append(co2_optimized())
        extension.set_geofence(Geofence(blocked_isds={3}))
        assert isinstance(extension.proxy.policy, CompositePolicy)

    def test_settings_compile_policy_empty(self):
        assert ExtensionSettings().compile_policy() is None

    def test_strict_flags(self, world):
        _internet, extension = world
        assert not extension.is_strict_for("a.example")
        extension.enable_strict_mode("a.example")
        assert extension.is_strict_for("a.example")
        assert not extension.is_strict_for("b.example")
        extension.enable_strict_mode()
        assert extension.is_strict_for("b.example")


class TestInterception:
    def test_scion_fetch_outcome(self, world):
        internet, extension = world
        indicator = PageIndicator()
        outcome = handle(internet, extension, "dual.example", indicator)
        assert outcome.ok and outcome.used_scion
        assert indicator.scion_resources == 1

    def test_ip_fallback_outcome(self, world):
        internet, extension = world
        indicator = PageIndicator()
        outcome = handle(internet, extension, "legacy.example", indicator)
        assert outcome.ok and not outcome.used_scion
        assert indicator.ip_resources == 1

    def test_strict_site_blocked_without_scion(self, world):
        internet, extension = world
        extension.enable_strict_mode("legacy.example")
        indicator = PageIndicator()
        outcome = handle(internet, extension, "legacy.example", indicator)
        assert outcome.blocked and outcome.response is None
        assert indicator.blocked_resources == 1
        assert extension.requests_blocked == 1

    def test_strict_site_allowed_with_scion(self, world):
        internet, extension = world
        extension.enable_strict_mode("dual.example")
        outcome = handle(internet, extension, "dual.example")
        assert outcome.ok and outcome.used_scion

    def test_interception_counter(self, world):
        internet, extension = world
        handle(internet, extension, "dual.example")
        handle(internet, extension, "legacy.example")
        assert extension.requests_intercepted == 2

    def test_overhead_charged(self, world):
        internet, extension = world
        start = internet.loop.now
        handle(internet, extension, "legacy.example")
        elapsed = internet.loop.now - start
        # extension overhead + 2x IPC + proxy processing at minimum
        floor = (extension.extension_overhead_ms
                 + 2 * extension.ipc_latency_ms
                 + extension.proxy.processing_ms)
        assert elapsed >= floor


class TestStrictScionHeader:
    def test_header_learned_into_store(self, world):
        internet, extension = world
        handle(internet, extension, "pinned.example")
        assert extension.hsts.is_strict("pinned.example")

    def test_learned_pin_enforces_strict(self, world):
        internet, extension = world
        handle(internet, extension, "pinned.example")
        # Make the policy unsatisfiable; the pinned origin must now block
        # rather than fall back to IP.
        extension.set_geofence(Geofence(blocked_isds={2}))
        outcome = handle(internet, extension, "pinned.example")
        assert outcome.blocked

    def test_unpinned_origin_still_falls_back(self, world):
        internet, extension = world
        handle(internet, extension, "dual.example")
        extension.set_geofence(Geofence(blocked_isds={2}))
        outcome = handle(internet, extension, "dual.example")
        assert outcome.ok and not outcome.used_scion


#: A SCION address no path reaches.
NOWHERE = HostAddr.parse("9-ff00:0:999,nowhere")


class TestPinsOnlyOverScion:
    """Like HSTS (RFC 6797 §8.1), a ``Strict-SCION`` pin counts only
    when it arrived over SCION; an ``addr=`` teaches on any transport."""

    def test_ip_response_cannot_pin_a_legacy_origin(self):
        # A legacy-only origin configured to pin for a year and to
        # advertise an unreachable SCION address. Were the pin honoured
        # from its TCP response, the second fetch would be blocked.
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=15)
        client = internet.add_host("client", ases.client)
        legacy = internet.add_host("legacy", ases.nearby_server)
        HttpServer(legacy, CONTENT, serve_tcp=True, serve_quic=False,
                   strict_scion_max_age=31_536_000,
                   advertise_scion_address=NOWHERE)
        resolver = Resolver(internet.loop, lookup_latency_ms=1.0)
        resolver.register_host("legacy.example", ip_address=legacy.addr)
        extension = BrowserExtension(SkipProxy(client, resolver,
                                               processing_ms=1.0))
        first = handle(internet, extension, "legacy.example")
        assert first.ok and not first.used_scion
        assert first.response.headers.get("Strict-SCION") == \
            f'addr="{NOWHERE}"'
        assert not extension.hsts.is_strict("legacy.example")
        assert extension.proxy.detector.learned["legacy.example"] == NOWHERE
        second = handle(internet, extension, "legacy.example")
        assert second.ok and not second.blocked and not second.used_scion

    @pytest.mark.parametrize("pinned_before", [False, True],
                             ids=["unpinned", "pinned"])
    @pytest.mark.parametrize("header,pins,clears,learns", [
        pytest.param("max-age=60", True, False, False, id="max-age"),
        pytest.param("max-age=0", False, True, False, id="max-age-0"),
        pytest.param(f'addr="{NOWHERE}"', False, False, True, id="addr"),
        pytest.param(f'max-age=60; addr="{NOWHERE}"', True, False, True,
                     id="max-age+addr"),
        pytest.param("max-age=soon; addr=garbage", False, False, False,
                     id="malformed"),
    ])
    @pytest.mark.parametrize("over_scion", [True, False],
                             ids=["scion", "ip"])
    def test_header_matrix(self, world, over_scion, header, pins, clears,
                           learns, pinned_before):
        _internet, extension = world
        if pinned_before:
            extension.hsts.observe("a.example", 600)
        before = set(extension.hsts.active_hosts())
        response = HttpResponse(status=200,
                                headers=Headers({"Strict-SCION": header}))
        extension._observe_response(get("a.example"), ProxyResult(
            response=response, used_scion=over_scion, policy_compliant=True,
            path_fingerprint=None, detection_source="dns", elapsed_ms=1.0))
        expected = before
        if over_scion and pins:
            expected = {"a.example"}
        elif over_scion and clears:
            expected = set()
        assert set(extension.hsts.active_hosts()) == expected
        assert (extension.proxy.detector.learned.get("a.example")
                == (NOWHERE if learns else None))


@pytest.mark.parametrize("max_age,address,over_scion,expected", [
    (60, NOWHERE, True, f'max-age=60; addr="{NOWHERE}"'),
    (60, NOWHERE, False, f'addr="{NOWHERE}"'),
    (None, NOWHERE, True, f'addr="{NOWHERE}"'),
    (None, NOWHERE, False, f'addr="{NOWHERE}"'),
    (60, None, True, "max-age=60"),
    (60, None, False, None),
    (None, None, True, None),
], ids=["pin+addr-scion", "pin+addr-ip", "addr-scion", "addr-ip",
        "pin-scion", "pin-ip", "neither-scion"])
def test_server_sends_max_age_only_over_scion(max_age, address, over_scion,
                                              expected):
    topology, ases = remote_testbed()
    host = Internet(topology, seed=15).add_host("origin", ases.client)
    server = HttpServer(host, CONTENT, strict_scion_max_age=max_age,
                        advertise_scion_address=address)
    response = server.respond(get("a.example"), over_scion)
    assert response.headers.get("Strict-SCION") == expected
