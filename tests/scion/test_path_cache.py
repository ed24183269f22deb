"""Per-instance caching on :class:`ScionPath`: reverse() and
fingerprint().

Response traffic reverses a path per packet and the HTTP client keys
its connection pools on fingerprints per request, so both are memoized
on the (frozen) path instance. The cache must be invisible semantically:
the reversed path is field-for-field what the uncached construction
builds, and reverse-of-reverse is the *identical* object.
"""

import gc
import weakref

import pytest

from repro.internet.build import Internet
from repro.scion.path import ScionPath
from repro.topology.defaults import remote_testbed


@pytest.fixture
def world():
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=11)
    client = internet.add_host("client", ases.client)
    server = internet.add_host("server", ases.remote_server)
    return internet, ases, client, server


@pytest.fixture
def path(world):
    internet, ases, client, _server = world
    return client.daemon.paths(ases.remote_server)[0]


class TestReverseCache:
    def test_reverse_is_cached(self, path):
        assert path.reverse() is path.reverse()

    def test_reverse_of_reverse_is_the_same_object(self, path):
        assert path.reverse().reverse() is path

    def test_the_pair_dies_by_reference_counting(self, path):
        """The link back is weak: a path and its cached reverse are no
        reference cycle."""
        fresh = path._build_reverse()  # held by nothing else
        refs = [weakref.ref(fresh), weakref.ref(fresh.reverse())]
        assert fresh.reverse().reverse() is fresh
        gc.disable()
        try:
            del fresh
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_cache_matches_uncached_construction(self, path):
        cached = path.reverse()
        rebuilt = path._build_reverse()
        assert cached == rebuilt
        assert cached.src_as == path.dst_as
        assert cached.dst_as == path.src_as
        assert cached.metadata.ases == tuple(reversed(path.metadata.ases))

    def test_response_traffic_builds_the_reverse_once(self, world,
                                                      monkeypatch):
        """An echo exchange reverses the path once per packet on the
        server side; all but the first reversal must hit the cache."""
        internet, ases, client, server = world
        builds = []
        original = ScionPath._build_reverse

        def counting(self):
            builds.append(self)
            return original(self)

        monkeypatch.setattr(ScionPath, "_build_reverse", counting)
        socket = server.udp_socket(7)

        def echo():
            while True:
                datagram = yield socket.recv()
                socket.send(datagram.src, datagram.src_port, b"pong", 64,
                            via="scion", path=datagram.path.reverse())

        internet.loop.process(echo(), name="echo")
        path = client.daemon.paths(ases.remote_server)[0]

        def probe(n_pings):
            probe_socket = client.udp_socket()
            for _ in range(n_pings):
                probe_socket.send(server.addr, 7, b"ping", 64, via="scion",
                                  path=path)
                yield probe_socket.recv()

        internet.loop.run_process(probe(10))
        # One real build for the first reply; nine cache hits.
        assert len(builds) == 1


class TestFingerprintCache:
    def test_fingerprint_is_memoized(self, path):
        first = path.fingerprint()
        assert path.fingerprint() is first

    def test_cache_matches_recomputation(self, path):
        cached = path.fingerprint()
        text = "|".join(f"{isd_as}#{ifid}"
                        for isd_as, ifid in path.interfaces())
        import hashlib
        assert cached == hashlib.sha256(text.encode()).hexdigest()[:16]

    def test_distinct_paths_keep_distinct_fingerprints(self, world):
        internet, ases, client, _server = world
        paths = client.daemon.paths(ases.remote_server)
        assert len(paths) == 2
        assert paths[0].fingerprint() != paths[1].fingerprint()
