"""The SKIP proxy: SCION-or-IP decision, strict mode, fallback, stats."""

import pytest

from repro.core.geofence import Geofence
from repro.core.ppl.policies import co2_optimized, latency_optimized
from repro.core.skip.proxy import SkipProxy
from repro.dns.resolver import Resolver
from repro.errors import HttpError, ProxyError, StrictModeViolation
from repro.http.message import Headers, HttpRequest, ResourceData
from repro.http.server import HttpServer
from repro.internet.build import Internet
from repro.topology.defaults import remote_testbed

CONTENT = {"/x.html": ResourceData(size=3_000, content_type="text/html")}


@pytest.fixture
def world():
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=14)
    client = internet.add_host("client", ases.client)
    dual = internet.add_host("dual", ases.remote_server)
    legacy = internet.add_host("legacy", ases.nearby_server)
    HttpServer(dual, CONTENT, serve_tcp=True, serve_quic=True)
    HttpServer(legacy, CONTENT, serve_tcp=True, serve_quic=False)
    resolver = Resolver(internet.loop, lookup_latency_ms=1.0)
    resolver.register_host("dual.example", ip_address=dual.addr,
                           scion_address=dual.addr)
    resolver.register_host("legacy.example", ip_address=legacy.addr)
    proxy = SkipProxy(client, resolver, processing_ms=1.0)
    return internet, ases, proxy


def get(host):
    return HttpRequest(method="GET", host=host, path="/x.html",
                       headers=Headers())


def fetch(internet, proxy, host, strict=False):
    def main():
        result = yield from proxy.fetch(get(host), strict=strict)
        return result

    return internet.loop.run_process(main())


class TestOpportunisticMode:
    def test_scion_preferred_when_available(self, world):
        internet, _ases, proxy = world
        result = fetch(internet, proxy, "dual.example")
        assert result.used_scion
        assert result.policy_compliant
        assert result.response.status == 200
        assert result.detection_source == "dns-txt"

    def test_ip_fallback_when_no_scion(self, world):
        internet, _ases, proxy = world
        result = fetch(internet, proxy, "legacy.example")
        assert not result.used_scion
        assert result.response.status == 200

    def test_unknown_host_raises_http_error(self, world):
        internet, _ases, proxy = world

        def main():
            with pytest.raises(HttpError, match="no route"):
                yield from proxy.fetch(get("ghost.example"))
            return "done"

        assert internet.loop.run_process(main()) == "done"

    def test_policy_exhausted_falls_back_to_ip(self, world):
        internet, _ases, proxy = world
        proxy.set_policy(Geofence(blocked_isds={2}).to_policy())
        result = fetch(internet, proxy, "dual.example")
        assert not result.used_scion
        assert result.response.status == 200
        assert proxy.stats.hosts["dual.example"].fallbacks == 1

    def test_noncompliant_path_used_when_configured(self):
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=14)
        client = internet.add_host("client", ases.client)
        dual = internet.add_host("dual", ases.remote_server)
        HttpServer(dual, CONTENT, serve_tcp=True, serve_quic=True)
        resolver = Resolver(internet.loop)
        resolver.register_host("dual.example", ip_address=dual.addr,
                               scion_address=dual.addr)
        proxy = SkipProxy(client, resolver, use_noncompliant_paths=True)
        proxy.set_policy(Geofence(blocked_isds={2}).to_policy())
        result = fetch(internet, proxy, "dual.example")
        assert result.used_scion
        assert not result.policy_compliant

    def test_curated_domain_added_at_runtime_goes_over_scion(self, world):
        """§4.1's curated list: a SCION-capable origin with no TXT
        record is fetched over IP until the list names it."""
        internet, ases, proxy = world
        quiet = internet.add_host("quiet", ases.remote_server)
        HttpServer(quiet, CONTENT, serve_tcp=True, serve_quic=True)
        proxy.detector.resolver.register_host("quiet.example",
                                              ip_address=quiet.addr)
        before = fetch(internet, proxy, "quiet.example")
        assert not before.used_scion
        assert before.detection_source == "none"
        proxy.add_curated_domain("quiet.example", quiet.addr)
        after = fetch(internet, proxy, "quiet.example")
        assert after.used_scion
        assert after.detection_source == "curated"
        assert after.response.status == 200

    def test_policy_steers_path_choice(self, world):
        internet, _ases, proxy = world
        proxy.set_policy(latency_optimized())
        fast = fetch(internet, proxy, "dual.example")
        proxy.set_policy(co2_optimized())
        green = fetch(internet, proxy, "dual.example")
        assert fast.path_fingerprint != green.path_fingerprint


class TestStrictMode:
    def test_strict_blocks_legacy_only_host(self, world):
        internet, _ases, proxy = world

        def main():
            with pytest.raises(StrictModeViolation):
                yield from proxy.fetch(get("legacy.example"), strict=True)
            return "blocked"

        assert internet.loop.run_process(main()) == "blocked"
        assert proxy.stats.hosts["legacy.example"].blocked_requests == 1

    def test_strict_blocks_when_policy_exhausted(self, world):
        internet, _ases, proxy = world
        proxy.set_policy(Geofence(blocked_isds={2}).to_policy())

        def main():
            with pytest.raises(StrictModeViolation):
                yield from proxy.fetch(get("dual.example"), strict=True)
            return "blocked"

        assert internet.loop.run_process(main()) == "blocked"

    def test_strict_allows_compliant_scion(self, world):
        internet, _ases, proxy = world
        result = fetch(internet, proxy, "dual.example", strict=True)
        assert result.used_scion and result.policy_compliant

    def test_check_scion_probe(self, world):
        internet, _ases, proxy = world

        def main():
            detection, choice = yield from proxy.check_scion("dual.example")
            detection2, choice2 = yield from proxy.check_scion(
                "legacy.example")
            return (detection.scion_available, choice.compliant,
                    detection2.scion_available, choice2.compliant)

        assert internet.loop.run_process(main()) == (True, True, False,
                                                     False)


class TestStatsAndAccounting:
    def test_stats_record_transport_mix(self, world):
        internet, _ases, proxy = world
        fetch(internet, proxy, "dual.example")
        fetch(internet, proxy, "legacy.example")
        assert proxy.stats.scion_share() == 0.5

    def test_path_latency_feedback(self, world):
        internet, _ases, proxy = world
        result = fetch(internet, proxy, "dual.example")
        record = proxy.stats.hosts["dual.example"].paths[
            result.path_fingerprint]
        assert record.uses == 1
        assert record.mean_latency_ms > 0

    def test_proxy_requires_daemon(self, world):
        internet, ases, _proxy = world
        from repro.internet.host import Host
        from repro.scion.addr import HostAddr
        bare = Host("bare", HostAddr(ases.client, "bare"))
        bare.bind_loop(internet.loop)
        with pytest.raises(ProxyError):
            SkipProxy(bare, Resolver(internet.loop))

    def test_processing_noise_with_rng(self, world):
        internet, _ases, proxy = world
        import random
        proxy.rng = random.Random(3)
        costs = {proxy._cost(10.0) for _ in range(10)}
        assert len(costs) > 1
        assert all(6.0 <= cost <= 18.0 for cost in costs)
