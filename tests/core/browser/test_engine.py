"""The browser engine and the full BraveBrowser assembly."""

import pytest

from repro.core.browser.brave import BraveBrowser
from repro.core.browser.page import content_for_origin, synthetic_page
from repro.core.extension.ui import IndicatorState
from repro.dns.resolver import Resolver
from repro.http.server import HttpServer
from repro.internet.build import Internet
from repro.topology.defaults import LOCAL_AS, local_testbed


def build_world(page, strict_scion_max_age=None, seed=16):
    internet = Internet(local_testbed(), seed=seed)
    client = internet.add_host("client", LOCAL_AS)
    scion_fs = internet.add_host("scion-fs", LOCAL_AS)
    legacy_fs = internet.add_host("legacy-fs", LOCAL_AS)
    HttpServer(scion_fs, content_for_origin(page, "scion.example"),
               serve_tcp=True, serve_quic=True,
               strict_scion_max_age=strict_scion_max_age)
    HttpServer(legacy_fs, content_for_origin(page, "legacy.example"),
               serve_tcp=True, serve_quic=False)
    resolver = Resolver(internet.loop, lookup_latency_ms=0.3)
    resolver.register_host("scion.example", ip_address=scion_fs.addr,
                           scion_address=scion_fs.addr)
    resolver.register_host("legacy.example", ip_address=legacy_fs.addr)
    browser = BraveBrowser(client, resolver)
    return internet, browser


def load(internet, browser, page):
    return internet.loop.run_process(browser.load(page))


MIXED = synthetic_page("scion.example", n_resources=3,
                       third_party={"legacy.example": 3}, seed=2)
SCION_ONLY = synthetic_page("scion.example", n_resources=5, seed=2)


class TestLoading:
    def test_all_resources_fetched(self):
        internet, browser = build_world(MIXED)
        result = load(internet, browser, MIXED)
        assert not result.failed
        assert len(result.outcomes) == 7  # main + 6 resources
        assert all(outcome.ok for outcome in result.outcomes)
        assert result.plt_ms > 0

    def test_indicator_mixed(self):
        internet, browser = build_world(MIXED)
        result = load(internet, browser, MIXED)
        assert result.indicator_state is IndicatorState.SOME_SCION
        assert result.scion_count == 4  # main + 3 own resources

    def test_indicator_all_scion(self):
        internet, browser = build_world(SCION_ONLY)
        result = load(internet, browser, SCION_ONLY)
        assert result.indicator_state is IndicatorState.ALL_SCION

    def test_direct_engine_never_uses_scion(self):
        internet, browser = build_world(MIXED)
        browser.disable_extension()
        result = load(internet, browser, MIXED)
        assert result.scion_count == 0
        assert result.indicator_state is IndicatorState.NO_SCION

    def test_direct_engine_faster_than_proxied(self):
        internet, browser = build_world(MIXED)
        proxied = load(internet, browser, MIXED)
        browser.disable_extension()
        direct = load(internet, browser, MIXED)
        assert direct.plt_ms < proxied.plt_ms

    def test_reenabled_extension_routes_through_the_proxy(self):
        internet, browser = build_world(MIXED)
        browser.disable_extension()
        assert load(internet, browser, MIXED).scion_count == 0
        browser.enable_extension()
        result = load(internet, browser, MIXED)
        assert result.scion_count == 4  # main + 3 own resources
        assert result.indicator_state is IndicatorState.SOME_SCION
        assert browser._proxied_engine.pages_loaded == 1

    def test_missing_resource_marks_outcome(self):
        page = synthetic_page("scion.example", n_resources=2, seed=2)
        internet, browser = build_world(page)
        hole = synthetic_page("scion.example", n_resources=3, seed=2)
        result = load(internet, browser, hole)  # asset-2 not served
        statuses = [outcome.response.status for outcome in result.outcomes
                    if outcome.response]
        assert 404 in statuses

    def test_empty_page_loads(self):
        page = synthetic_page("scion.example", n_resources=0, seed=1)
        internet, browser = build_world(page)
        result = load(internet, browser, page)
        assert not result.failed
        assert len(result.outcomes) == 1


class TestStrictMode:
    def test_strict_blocks_legacy_resources(self):
        internet, browser = build_world(MIXED)
        browser.extension.enable_strict_mode()
        result = load(internet, browser, MIXED)
        assert not result.failed  # main doc is on the SCION origin
        assert result.blocked_count == 3
        assert result.indicator_state is IndicatorState.BLOCKED

    def test_strict_main_document_failure(self):
        page = synthetic_page("legacy.example", n_resources=2, seed=1)
        internet, browser = build_world(page)
        browser.extension.enable_strict_mode()
        result = load(internet, browser, page)
        assert result.failed
        assert len(result.outcomes) == 1  # nothing after the main doc

    def test_strict_via_header_pin(self):
        internet, browser = build_world(SCION_ONLY, strict_scion_max_age=60)
        load(internet, browser, SCION_ONLY)
        assert browser.extension.hsts.is_strict("scion.example")


class TestPltComposition:
    def test_plt_grows_with_resource_count(self):
        small = synthetic_page("scion.example", n_resources=2, seed=5)
        large = synthetic_page("scion.example", n_resources=20, seed=5)
        internet_a, browser_a = build_world(small)
        internet_b, browser_b = build_world(large)
        plt_small = load(internet_a, browser_a, small).plt_ms
        plt_large = load(internet_b, browser_b, large).plt_ms
        assert plt_large > plt_small

    def test_second_load_faster_with_warm_connections(self):
        internet, browser = build_world(SCION_ONLY)
        first = load(internet, browser, SCION_ONLY)
        second = load(internet, browser, SCION_ONLY)
        assert second.plt_ms < first.plt_ms

    def test_pages_loaded_counter(self):
        internet, browser = build_world(SCION_ONLY)
        load(internet, browser, SCION_ONLY)
        load(internet, browser, SCION_ONLY)
        assert browser._proxied_engine.pages_loaded == 2
