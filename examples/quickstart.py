#!/usr/bin/env python3
"""Quickstart: load a page through the SCION browser extension.

Builds the paper's local testbed (Figure 2) — a browser, the SKIP proxy,
a SCION file server and a legacy TCP/IP file server on one simulated
laptop — loads a mixed page with the extension enabled and disabled, and
prints the Page Load Times plus the proxy's path-usage feedback.

Run: ``python examples/quickstart.py``
"""

from repro import (
    BraveBrowser,
    HttpServer,
    Internet,
    Resolver,
    content_for_origin,
    synthetic_page,
)
from repro.obs.metrics import observe
from repro.topology.defaults import LOCAL_AS, local_testbed


def main() -> None:
    internet = Internet(local_testbed(), seed=7)
    client = internet.add_host("client", LOCAL_AS)
    scion_fs = internet.add_host("scion-fs", LOCAL_AS)
    legacy_fs = internet.add_host("legacy-fs", LOCAL_AS)

    # A page with resources on both servers (the "mixed" workload).
    page = synthetic_page("scion-fs.local", n_resources=6,
                          third_party={"legacy-fs.local": 4}, seed=1)
    HttpServer(scion_fs, content_for_origin(page, "scion-fs.local"),
               serve_tcp=True, serve_quic=True)
    HttpServer(legacy_fs, content_for_origin(page, "legacy-fs.local"),
               serve_tcp=True, serve_quic=False)

    resolver = Resolver(internet.loop, lookup_latency_ms=0.5)
    resolver.register_host("scion-fs.local", ip_address=scion_fs.addr,
                           scion_address=scion_fs.addr)
    resolver.register_host("legacy-fs.local", ip_address=legacy_fs.addr)

    browser = BraveBrowser(client, resolver)

    def session():
        result = yield from browser.load(page)
        print(f"extension ON : PLT {result.plt_ms:7.1f} ms  "
              f"indicator={result.indicator_state.value}  "
              f"({result.scion_count}/{len(result.outcomes)} over SCION)")
        browser.disable_extension()
        result = yield from browser.load(page)
        print(f"extension OFF: PLT {result.plt_ms:7.1f} ms  "
              f"indicator={result.indicator_state.value}")
        return None

    internet.loop.run_process(session())
    print("\npath usage feedback (the proxy's stats panel):")
    print(browser.path_usage_report(observe(internet, [browser])))


if __name__ == "__main__":
    main()
