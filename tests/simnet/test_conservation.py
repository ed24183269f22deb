"""Packet conservation at quiescence, over the packet-level oracle.

Every packet a node hands to a link is either carried or dropped by
that link, and every packet a link carries reaches a node. Routers and
hosts count their sends where they schedule them onto the egress link,
so these sums also pin those increments. The fast path is off: its
analytic transfers credit link counters without node sends.

One small world of each spec — local, remote, fault, city and crowd —
is also drained with every link traced, and must leave nothing behind:
no scheduled or cancelled loop entry, no packet on a wire, and on every
link each packet it was handed either received at the far end or
dropped.
"""

import dataclasses
from collections import Counter

import pytest

from repro.experiments.fault_battery import fault_load
from repro.experiments.local_setup import figure3_load
from repro.experiments.overload import DEFAULT_CONFIG, drain_arm
from repro.experiments.population import (build_population_world,
                                          start_sessions)
from repro.experiments.remote_setup import FAR_ORIGIN, remote_load
from repro.internet.build import Internet
from repro.internet.knobs import forced
from repro.simnet.fastpath import FASTPATH_ENV
from repro.simnet.network import Network
from repro.topology.generator import line_topology


@pytest.fixture(autouse=True)
def _packet_level():
    with forced(FASTPATH_ENV, False):
        yield


def assert_conserved(network) -> None:
    links, nodes = network.links, network.nodes.values()
    assert [link.name for link in links if link.inflight] == []
    node_sent = sum(node.packets_sent for node in nodes)
    link_sent = sum(link.packets_sent for link in links)
    link_dropped = sum(link.packets_dropped for link in links)
    assert node_sent == link_sent + link_dropped
    assert link_sent == sum(node.packets_received for node in nodes)


def test_figure3_oracle_load():
    world, result = figure3_load("mixed SCION-IP", 100)
    world.internet.run()
    assert not result.failed
    assert_conserved(world.internet.network)


def test_remote_world_load():
    world, result = remote_load(FAR_ORIGIN, "single origin / SCION", 100)
    world.internet.run()
    assert not result.failed
    assert_conserved(world.internet.network)


def test_small_overload_arm():
    small = dataclasses.replace(DEFAULT_CONFIG, users=24)
    world, _rows = drain_arm("protections-on", 1201, small)
    assert_conserved(world.internet.network)


def test_lossy_line_drops_and_conserves():
    internet = Internet(line_topology(4), seed=11)
    ases = sorted(internet.routers)
    client = internet.add_host("client", ases[-1])
    server = internet.add_host("server", ases[0])
    for link in internet.network.links:
        link.extra_loss_rate = 0.2
    server.udp_socket(9)
    socket = client.udp_socket()
    path = client.daemon.paths(ases[0])[0]
    for _ in range(100):
        socket.send(server.addr, 9, None, 200, via="scion", path=path)
        socket.send(server.addr, 9, None, 200, via="ip")
    internet.run()
    network = internet.network
    assert sum(link.packets_dropped for link in network.links) > 0
    assert 0 < server.datagrams_received < 200
    assert_conserved(network)


def _city():
    world = build_population_world("opportunistic-SCION", 900, users=6)
    start_sessions(world)
    world.internet.run()
    return world


SPECS = {
    "local": lambda: figure3_load("mixed SCION-IP", 100)[0],
    "remote": lambda: remote_load(FAR_ORIGIN, "multiple origins / SCION",
                                  500)[0],
    "fault": lambda: fault_load("link-flap", "opportunistic", 500)[0],
    "city": _city,
    "crowd": lambda: drain_arm(
        "protections-on", 1201,
        dataclasses.replace(DEFAULT_CONFIG, users=12))[0],
}


@pytest.mark.parametrize("spec", SPECS)
def test_a_drained_world_leaves_nothing_behind(spec, monkeypatch):
    init = Network.__init__

    def traced_init(self, seed=0, trace=False):
        init(self, seed=seed, trace=True)

    monkeypatch.setattr(Network, "__init__", traced_init)
    world = SPECS[spec]()
    world.internet.run()
    loop, network = world.internet.loop, world.internet.network
    assert loop._queue == [] and loop._cancelled == set()
    assert loop.unobserved_failures == {}
    assert [link.name for link in network.links if link.inflight] == []
    records = Counter((entry.link, entry.event.partition("-")[0])
                      for entry in network.trace)
    for link in network.links:
        handed = link.packets_sent + link.packets_dropped
        assert records[link.name, "send"] == link.packets_sent
        assert handed == (records[link.name, "recv"]
                          + records[link.name, "drop"])
    assert sum(link.packets_sent for link in network.links) > 0
    if spec == "fault":
        assert sum(link.packets_dropped for link in network.links) > 0
