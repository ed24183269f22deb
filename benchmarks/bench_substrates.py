"""Substrate micro-benchmarks.

Not a paper figure: these time the expensive building blocks (beaconing
with real signatures, segment combination, PPL evaluation, RSA, a bulk
QUIC transfer) so performance regressions in the simulator itself are
visible.
"""

import random

from repro.core.ppl.evaluator import order_paths
from repro.core.ppl.policies import co2_optimized
from repro.crypto.rsa import generate_keypair
from repro.internet.build import Internet
from repro.quic.connection import QuicListener, quic_connect
from repro.scion.beaconing import BeaconingService
from repro.scion.combinator import combine_segments
from repro.scion.pki import ControlPlanePki
from repro.topology.defaults import remote_testbed
from repro.topology.generator import random_internet


def test_bench_beaconing(benchmark):
    topology = random_internet(n_isds=3, cores_per_isd=2, leaves_per_isd=4,
                               seed=1)
    pki = ControlPlanePki(topology, seed=1)
    pki.certificates  # key generation is lazy; keep it out of the timing

    def run():
        return BeaconingService(topology, pki).build_store()

    store = benchmark(run)
    assert store.registrations > 0


def test_bench_combination(benchmark):
    topology = random_internet(n_isds=3, cores_per_isd=2, leaves_per_isd=4,
                               seed=1)
    pki = ControlPlanePki(topology, seed=1)
    store = BeaconingService(topology, pki).build_store()
    cores = {info.isd_as for info in topology.core_ases()}
    leaves = [info.isd_as for info in topology.ases() if not info.core]

    def run():
        return combine_segments(leaves[0], leaves[-1], store,
                                core_ases=cores)

    paths = benchmark(run)
    assert paths


def test_bench_ppl_evaluation(benchmark):
    topology = random_internet(n_isds=3, cores_per_isd=2, leaves_per_isd=4,
                               seed=1)
    pki = ControlPlanePki(topology, seed=1)
    store = BeaconingService(topology, pki).build_store()
    cores = {info.isd_as for info in topology.core_ases()}
    leaves = [info.isd_as for info in topology.ases() if not info.core]
    paths = combine_segments(leaves[0], leaves[-1], store, core_ases=cores)
    policy = co2_optimized()

    ordered = benchmark(lambda: order_paths(policy, paths))
    assert ordered


def test_bench_rsa_keygen(benchmark):
    keypair = benchmark(lambda: generate_keypair(random.Random(7), bits=256))
    assert keypair.public.bits >= 250


def test_bench_quic_bulk_transfer(benchmark):
    """One 500 KiB transfer over the simulated remote path."""
    def run():
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=2)
        client = internet.add_host("client", ases.client)
        server = internet.add_host("server", ases.remote_server)

        def handler(connection):
            stream = yield connection.accept_stream()
            yield stream.recv()
            stream.send(b"blob", 512_000)

        QuicListener(server, 443, handler)
        path = client.daemon.paths(ases.remote_server)[0]

        def main():
            connection = yield from quic_connect(client, server.addr, 443,
                                                 path=path)
            stream = connection.open_stream()
            stream.send("get", 100)
            blob = yield stream.recv()
            return blob

        return internet.loop.run_process(main())

    assert benchmark(run) == b"blob"
