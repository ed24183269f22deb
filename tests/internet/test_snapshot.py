"""The control-plane snapshot cache: hits, misses, invalidation.

The cache key must cover every input the control-plane state depends on
— topology content, beaconing budget, verify flag — and nothing else
(the trial seed and data-plane knobs like ``verify_macs`` or host jitter
must not fragment it). The conftest's autouse fixture clears the cache
around every test, so all counters here start from zero.
"""

import inspect

import pytest

from repro.internet import snapshot
from repro.internet.build import Internet
from repro.topology.defaults import local_testbed, remote_testbed
from repro.topology.graph import LinkKind


class TestCacheHitsAndMisses:
    def test_same_inputs_hit(self):
        first = Internet(local_testbed(), seed=1)
        second = Internet(local_testbed(), seed=1)
        assert snapshot.stats.misses == 1
        assert snapshot.stats.hits == 1
        assert second.snapshot is first.snapshot

    def test_shared_state_is_the_same_objects(self):
        first = Internet(local_testbed(), seed=1)
        second = Internet(local_testbed(), seed=1)
        assert second.pki is first.pki
        assert second.segment_store is first.segment_store
        assert second.bgp is first.bgp
        # The mutable wrapper stays per-world.
        assert second.path_server is not first.path_server

    def test_seeds_share_a_snapshot_topologies_do_not(self):
        """The trial seed reaches nothing in the control plane; the
        topology seeds all of it, secrets included."""
        topology, ases = remote_testbed()
        first = Internet(topology, seed=1)
        second = Internet(remote_testbed()[0], seed=2)
        assert second.snapshot is first.snapshot
        assert (snapshot.stats.misses, snapshot.stats.hits) == (1, 1)
        topology.add_link(ases.local_core, ases.remote_core, LinkKind.CORE,
                          latency_ms=9.0)
        other = Internet(topology, seed=1)
        assert snapshot.stats.misses == 2
        assert other.pki.forwarding_key(ases.client) \
            != first.pki.forwarding_key(ases.client)

    def test_seed_is_not_a_parameter(self):
        """Guard against quietly re-fragmenting the key per trial."""
        for function in (snapshot.control_plane_snapshot,
                         snapshot.snapshot_key):
            assert "seed" not in inspect.signature(function).parameters

    def test_different_topology_misses(self):
        Internet(local_testbed(), seed=1)
        Internet(remote_testbed()[0], seed=1)
        assert snapshot.stats.misses == 2

    def test_beacons_per_target_fragments_the_key(self):
        topology, _ases = remote_testbed()
        Internet(topology, seed=1, beacons_per_target=8)
        Internet(topology, seed=1, beacons_per_target=2)
        assert snapshot.stats.misses == 2

    def test_verify_beacons_fragments_the_key(self):
        Internet(local_testbed(), seed=1, verify_beacons=False)
        Internet(local_testbed(), seed=1, verify_beacons=True)
        assert snapshot.stats.misses == 2

    def test_verify_macs_is_data_plane_only(self):
        """verify_macs configures routers, not the control plane: both
        worlds share one snapshot."""
        Internet(local_testbed(), seed=1, verify_macs=True)
        Internet(local_testbed(), seed=1, verify_macs=False)
        assert snapshot.stats.misses == 1
        assert snapshot.stats.hits == 1

    def test_host_knobs_are_data_plane_only(self):
        Internet(local_testbed(), seed=1)
        Internet(local_testbed(), seed=1, host_jitter_ms=5.0,
                 host_bandwidth_mbps=100.0)
        assert snapshot.stats.hits == 1


class TestTopologyMutationInvalidates:
    def test_added_as_misses(self):
        topology, ases = remote_testbed()
        Internet(topology, seed=1)
        topology.add_as("1-ff00:0:999", internal_latency_ms=0.5)
        topology.add_link(ases.local_core, "1-ff00:0:999", LinkKind.PARENT,
                          latency_ms=3.0)
        Internet(topology, seed=1)
        assert snapshot.stats.misses == 2
        assert snapshot.stats.hits == 0

    def test_added_link_misses(self):
        topology, ases = remote_testbed()
        Internet(topology, seed=1)
        topology.add_link(ases.local_core, ases.remote_core, LinkKind.CORE,
                          latency_ms=9.0)
        Internet(topology, seed=1)
        assert snapshot.stats.misses == 2

    def test_attribute_edit_misses(self):
        """Post-construction AsInfo edits change the fingerprint too."""
        topology = local_testbed()
        Internet(topology, seed=1)
        topology.ases()[0].internal_latency_ms = 99.0
        Internet(topology, seed=1)
        assert snapshot.stats.misses == 2

    def test_equal_content_shares_across_instances(self):
        """Two independently built topologies with identical content
        intern one snapshot — the property run_all's batteries rely on."""
        Internet(local_testbed(), seed=7)
        Internet(local_testbed(), seed=7)
        assert snapshot.cache_size() == 1


class TestEnvDisable:
    def test_disabled_cache_counts_bypasses(self, monkeypatch):
        monkeypatch.setenv(snapshot.SNAPSHOT_CACHE_ENV, "0")
        Internet(local_testbed(), seed=1)
        Internet(local_testbed(), seed=1)
        assert snapshot.stats.bypasses == 2
        assert snapshot.stats.misses == 0
        assert snapshot.cache_size() == 0

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", "OFF"])
    def test_disabling_values(self, value, monkeypatch):
        monkeypatch.setenv(snapshot.SNAPSHOT_CACHE_ENV, value)
        assert not snapshot.cache_enabled()

    @pytest.mark.parametrize("value", ["1", "on", "yes", ""])
    def test_enabling_values(self, value, monkeypatch):
        monkeypatch.setenv(snapshot.SNAPSHOT_CACHE_ENV, value)
        assert snapshot.cache_enabled()

    def test_disabled_worlds_match_cached_worlds(self, monkeypatch):
        cached = Internet(local_testbed(), seed=3)
        monkeypatch.setenv(snapshot.SNAPSHOT_CACHE_ENV, "0")
        rebuilt = Internet(local_testbed(), seed=3)
        assert rebuilt.segment_store.registrations \
            == cached.segment_store.registrations
        assert rebuilt.core_ases == cached.core_ases


class TestLruBound:
    def test_eviction_past_bound(self, monkeypatch):
        monkeypatch.setattr(snapshot, "MAX_CACHED_SNAPSHOTS", 2)
        for budget in (1, 2, 3):
            Internet(local_testbed(), beacons_per_target=budget)
        assert snapshot.cache_size() == 2
        assert snapshot.stats.evictions == 1
        # Oldest (budget 1) was evicted: rebuilding it misses again.
        Internet(local_testbed(), beacons_per_target=1)
        assert snapshot.stats.misses == 4
