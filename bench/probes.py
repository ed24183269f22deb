"""Isolated probes: one layer at a time, fixed input, fixed count.

Each probe times a small loop over one package's public entry points
and reports a rate or a per-operation cost (the median of three
passes). They say what a layer costs *alone*; ``bench/README.md`` lists
which end-to-end metric, on which workload, each should move.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

from repro.core.ppl import parse_policy
from repro.core.ppl.evaluator import select_path
from repro.core.ppl.policies import latency_optimized
from repro.crypto.mac import hop_mac, verify_hop_mac
from repro.crypto.rsa import generate_keypair
from repro.experiments import local_setup, remote_setup
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.internet import snapshot
from repro.internet.build import Internet
from repro.internet.knobs import forced
from repro.ip.tcp import TcpListener, tcp_connect
from repro.quic.connection import QuicListener, quic_connect
from repro.scion.combinator import combine_segments
from repro.simnet.events import EventLoop
from repro.simnet.fastpath import FASTPATH_ENV
from repro.simnet.network import Network
from repro.simnet.node import Node
from repro.simnet.packet import Packet
from repro.topology.defaults import remote_testbed
from repro.workload.catalog import default_catalog
from repro.workload.session import plan_session

#: World seed of every probe world (probes do not depend on ``--seed``:
#: they compare code versions, not inputs).
SEED = 4242

PPL_SOURCE = '''
policy "probe" {
    acl { - 3 + 0 }
    sequence "1-ff00:0:120 0* 2-ff00:0:220"
    require latency <= 120
    prefer latency asc
    prefer bandwidth desc
}
'''


def _seconds(function, passes: int = 3) -> float:
    """Median wall seconds of ``function()`` over ``passes`` runs."""
    walls = []
    for _ in range(passes):
        gc.collect()
        started = time.perf_counter()
        function()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def _nop() -> None:
    return None


def _events(probes: dict) -> None:
    count = 60_000

    def callbacks():
        loop = EventLoop()
        for _ in range(count):
            loop.call_soon(_nop)
        loop.run()

    def timeouts():
        loop = EventLoop()

        def ticker():
            for _ in range(count // 2):
                yield loop.timeout(0.01)

        loop.run_process(ticker())

    def cancels():
        loop = EventLoop()
        handles = [loop.call_later(5.0, _nop) for _ in range(count)]
        for handle in handles:
            loop.cancel_scheduled(handle)
        loop.run()

    probes["simnet.events.callbacks_per_s"] = count / _seconds(callbacks)
    probes["simnet.events.timeouts_per_s"] = (count // 2) / _seconds(timeouts)
    probes["simnet.events.cancels_per_s"] = count / _seconds(cancels)


def _link(probes: dict) -> None:
    count = 20_000

    def packets():
        network = Network(seed=SEED)
        a, b = network.add_node(Node("a")), network.add_node(Node("b"))
        network.connect(a, b, latency_ms=1.0, bandwidth_mbps=1000.0)
        for _ in range(count):
            a.send(Packet(src="a", dst="b", payload=None, size=1200), 1)
        network.run()
        assert b.packets_received == count

    probes["simnet.link.packets_per_s"] = count / _seconds(packets)


def _remote_world():
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=SEED)
    client = internet.add_host("client", ases.client)
    server = internet.add_host("server", ases.remote_server)
    return internet, ases, client, server


def _router_and_crypto(probes: dict) -> None:
    datagrams = 3_000
    hops = []

    def forward():
        internet, ases, client, server = _remote_world()
        path = client.daemon.paths(ases.remote_server)[0]
        server.udp_socket(9)
        source = client.udp_socket()
        for _ in range(datagrams):
            source.send(server.addr, 9, None, 1000, via="scion", path=path)
        internet.run()
        assert server.datagrams_received == datagrams
        hops.append(sum(router.packets_received
                        for router in internet.routers.values()))

    wall = _seconds(forward)
    probes["internet.router.hops_per_s"] = hops[-1] / wall

    count = 30_000
    key = b"k" * 32
    mac = hop_mac(key, 1_600_000_000, 63, 1, 2, b"chain!")

    def macs():
        for _ in range(count):
            verify_hop_mac(key, 1_600_000_000, 63, 1, 2, mac, b"chain!")

    probes["crypto.hop_macs_per_s"] = count / _seconds(macs)

    verifies = 1_000
    keypair = generate_keypair(random.Random(SEED))
    message = b"beacon payload " * 8
    signature = keypair.sign(message)

    def rsa():
        for _ in range(verifies):
            keypair.public.verify(message, signature)

    probes["crypto.rsa_verifies_per_s"] = verifies / _seconds(rsa)


def _build(probes: dict) -> None:
    # remote_testbed() is inside the timed call: every fresh world
    # rebuilds and re-fingerprints its topology, snapshot hit or not.
    def cold():
        snapshot.clear_cache()
        Internet(remote_testbed()[0], seed=SEED)

    def warm():
        Internet(remote_testbed()[0], seed=SEED)

    probes["internet.build_cold_ms"] = _seconds(cold) * 1000.0
    probes["internet.build_warm_ms"] = _seconds(warm, passes=9) * 1000.0

    users = 300

    def populate():
        topology, ases = remote_testbed()
        Internet(topology, seed=SEED).add_population("user", ases.client,
                                                     users)

    probes["internet.add_population_us_per_user"] = (
        (_seconds(populate) - probes["internet.build_warm_ms"] / 1000.0)
        * 1e6 / users)


def _control_plane(probes: dict) -> None:
    internet, ases, client, _server = _remote_world()
    store, cores = internet.segment_store, set(internet.core_ases)
    count = 300

    def combine():
        for _ in range(count):
            combine_segments(ases.client, ases.remote_server, store,
                             core_ases=cores, memo=False)

    probes["scion.combine_us"] = _seconds(combine) * 1e6 / count

    hits = 20_000
    client.daemon.paths(ases.remote_server)

    def daemon_hits():
        for _ in range(hits):
            client.daemon.paths(ases.remote_server)

    probes["scion.daemon_hit_us"] = _seconds(daemon_hits) * 1e6 / hits

    parses = 1_000

    def parse():
        for _ in range(parses):
            parse_policy(PPL_SOURCE)

    probes["core.ppl.parse_us"] = _seconds(parse) * 1e6 / parses

    selects = 5_000
    policy = latency_optimized()
    paths = client.daemon.paths(ases.remote_server)

    def select():
        for _ in range(selects):
            select_path(policy, paths)

    probes["core.ppl.select_us"] = _seconds(select) * 1e6 / selects


def _transfer(fast: bool) -> float:
    """Wall seconds of one 400 kB TCP transfer across the seven-AS
    world (connect, request, bulk response), fast path on or off."""
    def run():
        with forced(FASTPATH_ENV, fast):
            internet, _ases, client, server = _remote_world()

        def serve(connection):
            yield connection.recv()
            connection.send(b"blob", 400_000)

        TcpListener(server, 80, serve)

        def fetch():
            connection = yield from tcp_connect(client, server.addr, 80)
            connection.send("get", 100)
            return (yield connection.recv())

        assert internet.loop.run_process(fetch()) == b"blob"

    return _seconds(run)


def _transports(probes: dict) -> None:
    probes["transport.transfer_packet_ms"] = _transfer(False) * 1000.0
    probes["transport.transfer_fast_ms"] = _transfer(True) * 1000.0

    def quic_fetch():
        with forced(FASTPATH_ENV, False):
            internet, ases, client, server = _remote_world()

        def serve(connection):
            stream = yield connection.accept_stream()
            yield stream.recv()
            stream.send(b"blob", 100_000)

        QuicListener(server, 443, serve)
        path = client.daemon.paths(ases.remote_server)[0]

        def fetch():
            connection = yield from quic_connect(client, server.addr, 443,
                                                 path=path)
            stream = connection.open_stream()
            stream.send("get", 100)
            return (yield stream.recv())

        assert internet.loop.run_process(fetch()) == b"blob"

    probes["quic.fetch_ms"] = _seconds(quic_fetch) * 1000.0

    count = 20_000

    def messages():
        for index in range(count):
            request = HttpRequest("GET", "far.example", f"/asset-{index}.png",
                                  Headers({"Accept": "*/*"}))
            response = HttpResponse(
                200, Headers({"Strict-SCION": "max-age=3600",
                              "Cache-Control": "max-age=60"}),
                body_size=12_000)
            request.wire_bytes()
            response.wire_bytes()
            response.strict_scion_max_age()

    probes["http.message_roundtrip_us"] = _seconds(messages) * 1e6 / count


def _workload_and_obs(probes: dict) -> None:
    users = 3_000
    origins = (remote_setup.FAR_ORIGIN, remote_setup.NEAR_ORIGIN,
               remote_setup.NEAR2_ORIGIN, remote_setup.CDN_ORIGIN)

    def plan():
        catalog = default_catalog(40, origins, seed=SEED)
        for user in range(users):
            plan_session(catalog, user, SEED)

    probes["workload.plan_users_per_s"] = users / _seconds(plan)

    page = local_setup.make_page("mixed SCION-IP", 12, SEED)

    def loads(obs: bool):
        def run():
            for seed in range(SEED, SEED + 25):
                world = local_setup.build_local_world(page, seed, obs=obs)
                local_setup.load_once(world)
        return run

    loads(False)()  # one snapshot miss per seed, paid before timing
    probes["obs.trace_overhead_ratio"] = (_seconds(loads(True))
                                          / _seconds(loads(False)))


def run_probes() -> dict[str, float]:
    """Every probe, once; ``{metric name: value}``."""
    probes: dict[str, float] = {}
    for group in (_events, _link, _router_and_crypto, _build,
                  _control_plane, _transports, _workload_and_obs):
        group(probes)
    return probes
