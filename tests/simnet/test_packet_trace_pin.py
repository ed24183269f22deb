"""Every packet crosses every link at a pinned time.

Two loads run packet-level (fast path off) with every link traced: one
page of the seven-AS remote testbed (jittered host links, SCION and IP
packets, transit routers) and one page of the local testbed. The digest
of a load holds, per link, the multiset of ``(event, packet, time)``
records — a ``recv`` stamped with the packet's arrival at the far end —
and the link's ``packets_sent``, ``packets_dropped`` and ``bytes_sent``;
per router, its drop counters; and the page load time. Packet ids count
from the first packet the load makes.

The records are compared as multisets, so the order in which the loop
runs same-instant events may change without moving a pin: only a packet
sent, received or dropped at another time, or a counter that moved, does.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.experiments.local_setup import figure3_load
from repro.experiments.remote_setup import FAR_ORIGIN, remote_load
from repro.internet.knobs import forced
from repro.simnet.fastpath import FASTPATH_ENV
from repro.simnet.network import Network
from repro.simnet.packet import Packet

LOADS = {
    "remote": lambda: remote_load(FAR_ORIGIN, "multiple origins / SCION",
                                  500),
    "local": lambda: figure3_load("mixed SCION-IP", 100),
}

PINS = {
    "remote": "6e3cb10b169d42d7",
    "local": "e8c8212e82805505",
}


@pytest.fixture
def traced(monkeypatch):
    """Packet-level worlds whose networks trace every link."""
    init = Network.__init__

    def traced_init(self, seed=0, trace=False):
        init(self, seed=seed, trace=True)

    monkeypatch.setattr(Network, "__init__", traced_init)
    with forced(FASTPATH_ENV, False):
        yield


def record(name: str) -> dict:
    first = Packet(src=None, dst=None, payload=None, size=0).packet_id
    world, result = LOADS[name]()
    internet = world.internet
    internet.run()
    assert not result.failed
    network = internet.network
    records = {link.name: Counter() for link in network.links}
    for entry in network.trace:
        records[entry.link][entry.event, entry.packet_id - first,
                            entry.time] += 1
    return {
        "links": {link.name: (sorted(records[link.name].items()),
                              link.packets_sent, link.packets_dropped,
                              link.bytes_sent)
                  for link in network.links},
        "routers": {str(isd_as): (router.mac_failures, router.path_errors,
                                  router.expired_drops, router.no_route,
                                  router.no_host)
                    for isd_as, router in internet.routers.items()},
        "plt_ms": result.plt_ms,
        "protocols": sorted({entry.protocol for entry in network.trace}),
    }


@pytest.mark.parametrize("name", LOADS)
def test_packet_trace_is_pinned(name, traced):
    data = record(name)
    assert data["protocols"] == ["ip", "scion"]
    assert sum(1 for records, *_ in data["links"].values() if records) > 2
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINS[name]
