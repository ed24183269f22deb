"""repro — path-aware networking in the browser, reproduced.

A from-scratch Python reproduction of *"Tango or Square Dance? How
Tightly Should we Integrate Network Functionality in Browsers?"*
(HotNets 2022): the SCION control and data planes, a BGP/IP baseline,
QUIC and TCP transports, an HTTP stack, the Path Policy Language with
ISD-level geofencing, the SKIP HTTP proxy, the browser extension, and a
browser model that measures Page Load Time — all running on a
deterministic discrete-event network simulator.

Quickstart::

    from repro import (Internet, BraveBrowser, HttpServer, Resolver,
                       synthetic_page, content_for_origin)
    from repro.topology.defaults import LOCAL_AS, local_testbed

    net = Internet(local_testbed(), seed=1)
    client = net.add_host("client", LOCAL_AS)
    server = net.add_host("fs", LOCAL_AS)
    page = synthetic_page("fs.local", n_resources=6)
    HttpServer(server, content_for_origin(page, "fs.local"))
    resolver = Resolver(net.loop)
    resolver.register_host("fs.local", ip_address=server.addr,
                           scion_address=server.addr)
    browser = BraveBrowser(client, resolver)
    result = net.loop.run_process(browser.load(page))
    print(result.plt_ms, result.indicator_state)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.
"""

from repro.core.browser.brave import BraveBrowser
from repro.core.browser.engine import Browser, PageLoadResult
from repro.core.browser.page import (
    Resource,
    WebPage,
    content_for_origin,
    synthetic_page,
)
from repro.core.extension.extension import BrowserExtension, ExtensionSettings
from repro.core.geofence import Geofence
from repro.core.ppl import (
    Policy,
    combine,
    parse_policies,
    parse_policy,
    select_path,
)
from repro.core.properties import Layer, Property, decision_table
from repro.core.skip.proxy import SkipProxy
from repro.dns.resolver import Resolver
from repro.errors import ReproError
from repro.http.message import HttpRequest, HttpResponse, ResourceData
from repro.http.reverse_proxy import ScionReverseProxy
from repro.http.server import HttpServer
from repro.internet.build import Internet
from repro.scion.addr import HostAddr
from repro.scion.path import ScionPath
from repro.topology.graph import AsTopology, LinkKind
from repro.topology.isd_as import IsdAs

__version__ = "1.0.0"

__all__ = [
    "AsTopology",
    "BraveBrowser",
    "Browser",
    "BrowserExtension",
    "ExtensionSettings",
    "Geofence",
    "HostAddr",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "Internet",
    "IsdAs",
    "Layer",
    "LinkKind",
    "PageLoadResult",
    "Policy",
    "Property",
    "ReproError",
    "Resolver",
    "Resource",
    "ResourceData",
    "ScionPath",
    "ScionReverseProxy",
    "SkipProxy",
    "WebPage",
    "combine",
    "content_for_origin",
    "decision_table",
    "parse_policies",
    "parse_policy",
    "select_path",
    "synthetic_page",
]
