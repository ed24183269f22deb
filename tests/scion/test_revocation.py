"""Network-wide revocation dissemination and self-healing readmission.

Covers the revocation message itself (signing, tampering), the daemon's
filtering and eviction rules, the interplay with PR 2's per-host
quarantine, path-server partial degradation, and the end-to-end
propagation pipeline inside a built :class:`Internet` (span events
included).
"""

import pytest

from repro.errors import ReproError, VerificationError
from repro.internet.build import Internet
from repro.obs.metrics import observe
from repro.obs.spans import Tracer
from repro.scion.beaconing import BeaconingService
from repro.scion.combinator import combine_segments
from repro.scion.daemon import PathDaemon
from repro.scion.path_server import PathServer
from repro.scion.pki import ControlPlanePki
from repro.scion.revocation import (
    DEFAULT_PROPAGATION_DELAY_MS,
    REVOCATION_ENV,
    Revocation,
    RevocationService,
    revocation_enabled,
)
from repro.topology.defaults import remote_testbed


class Clock:
    """A trivially advanceable daemon clock."""

    def __init__(self) -> None:
        self.now = 0.0


@pytest.fixture(scope="module")
def control_plane():
    topology, ases = remote_testbed()
    pki = ControlPlanePki(topology, seed=2)
    store = BeaconingService(topology, pki).build_store()
    cores = {info.isd_as for info in topology.core_ases()}
    return topology, ases, pki, store, cores


def make_daemon(control_plane, clock=None, verify=False):
    _topology, ases, pki, store, cores = control_plane
    return PathDaemon(isd_as=ases.client, path_server=PathServer(store),
                      core_ases=cores, pki=pki if verify else None,
                      clock=clock)


def interface_on_some_path(daemon, dst):
    """A revocable interface plus the fingerprints it would kill.

    Picks an interface on the best path that some *other* path avoids,
    so revoking it narrows the candidate set without emptying it.
    """
    paths = daemon.paths(dst)
    all_fingerprints = {path.fingerprint() for path in paths}
    for key in sorted(paths[0].interface_set()):
        victims = {path.fingerprint() for path in paths
                   if key in path.interface_set()}
        if victims < all_fingerprints:
            return key, victims
    raise AssertionError("every interface is on every path")


def revoke(pki, key, issued_ms=0.0, ttl_ms=30_000.0):
    return Revocation.originate(pki, key[0], key[1], issued_ms=issued_ms,
                                ttl_ms=ttl_ms)


class TestRevocationMessage:
    def test_sign_verify_roundtrip(self, control_plane):
        _t, ases, pki, _s, _c = control_plane
        revocation = Revocation.originate(pki, ases.local_core, 7,
                                          issued_ms=5.0, ttl_ms=100.0)
        revocation.verify(pki)  # does not raise
        assert revocation.key == (ases.local_core, 7)
        assert revocation.expires_ms == 105.0

    def test_tampered_revocation_rejected(self, control_plane):
        _t, ases, pki, _s, _c = control_plane
        revocation = Revocation.originate(pki, ases.local_core, 7,
                                          issued_ms=5.0, ttl_ms=100.0)
        forged = Revocation(isd_as=revocation.isd_as, ifid=8,
                            issued_ms=revocation.issued_ms,
                            ttl_ms=revocation.ttl_ms,
                            signature=revocation.signature)
        with pytest.raises(VerificationError):
            forged.verify(pki)

    def test_enabled_knob(self, monkeypatch):
        assert revocation_enabled(True)
        assert not revocation_enabled(False)
        monkeypatch.setenv(REVOCATION_ENV, "0")
        assert not revocation_enabled()
        assert revocation_enabled(True)  # explicit override wins
        monkeypatch.delenv(REVOCATION_ENV)
        assert revocation_enabled()


class TestCombinatorFiltering:
    def test_revoked_interface_filters_paths(self, control_plane):
        _t, ases, _pki, store, cores = control_plane
        daemon = make_daemon(control_plane)
        key, victims = interface_on_some_path(daemon, ases.remote_server)
        assert victims
        filtered = combine_segments(ases.client, ases.remote_server, store,
                                    core_ases=cores, revoked=frozenset({key}))
        assert filtered
        fingerprints = {path.fingerprint() for path in filtered}
        assert not (fingerprints & victims)

    def test_memo_keyed_by_revoked_set(self, control_plane):
        # The combine memo lives on the (shared, cross-trial) segment
        # store; a revoked combination must not poison the unrevoked one.
        _t, ases, _pki, store, cores = control_plane
        daemon = make_daemon(control_plane)
        key, victims = interface_on_some_path(daemon, ases.remote_server)
        full = combine_segments(ases.client, ases.remote_server, store,
                                core_ases=cores)
        narrowed = combine_segments(ases.client, ases.remote_server, store,
                                    core_ases=cores,
                                    revoked=frozenset({key}))
        again = combine_segments(ases.client, ases.remote_server, store,
                                 core_ases=cores)
        assert {p.fingerprint() for p in again} == \
            {p.fingerprint() for p in full}
        assert len(narrowed) < len(full)


class TestDaemonRevocations:
    def test_pushed_revocation_filters_cached_answers(self, control_plane):
        _t, ases, pki, _s, _c = control_plane
        clock = Clock()
        daemon = make_daemon(control_plane, clock=clock)
        key, victims = interface_on_some_path(daemon, ases.remote_server)
        daemon.apply_revocation(revoke(pki, key))
        fingerprints = {path.fingerprint()
                        for path in daemon.paths(ases.remote_server)}
        assert not (fingerprints & victims)
        assert daemon.stats.revocations_applied == 1

    def test_verifying_daemon_rejects_forgeries(self, control_plane):
        _t, ases, pki, _s, _c = control_plane
        daemon = make_daemon(control_plane, verify=True)
        good = revoke(pki, (ases.local_core, 7))
        forged = Revocation(isd_as=good.isd_as, ifid=good.ifid + 1,
                            issued_ms=good.issued_ms, ttl_ms=good.ttl_ms,
                            signature=good.signature)
        with pytest.raises(VerificationError):
            daemon.apply_revocation(forged)
        assert daemon.stats.revocations_applied == 0

    def test_lift_evicts_and_readmits(self, control_plane):
        _t, ases, pki, _s, _c = control_plane
        clock = Clock()
        daemon = make_daemon(control_plane, clock=clock)
        key, victims = interface_on_some_path(daemon, ases.remote_server)
        daemon.apply_revocation(revoke(pki, key))
        daemon.paths(ases.remote_server)
        daemon.flush_cache()
        # Recombine *under* the revocation: the narrowed entry is the one
        # a lift must evict so healed paths come back.
        narrowed = daemon.paths(ases.remote_server)
        assert not ({p.fingerprint() for p in narrowed} & victims)
        daemon.lift_revocation(key)
        assert daemon.stats.revocations_lifted == 1
        assert daemon.stats.revocation_evictions == 1
        readmitted = {p.fingerprint()
                      for p in daemon.paths(ases.remote_server)}
        assert victims <= readmitted

    def test_ttl_lapse_readmits_without_lift(self, control_plane):
        _t, ases, pki, _s, _c = control_plane
        clock = Clock()
        daemon = make_daemon(control_plane, clock=clock)
        key, victims = interface_on_some_path(daemon, ases.remote_server)
        daemon.apply_revocation(revoke(pki, key, ttl_ms=500.0))
        assert not ({p.fingerprint()
                     for p in daemon.paths(ases.remote_server)} & victims)
        clock.now = 501.0
        readmitted = {p.fingerprint()
                      for p in daemon.paths(ases.remote_server)}
        assert victims <= readmitted

    def test_quarantine_expiry_alone_does_not_readmit_revoked(
            self, control_plane):
        # Satellite regression: a path both reported-dead *and* revoked
        # must stay out when only the quarantine TTL passes.
        _t, ases, pki, _s, _c = control_plane
        clock = Clock()
        daemon = make_daemon(control_plane, clock=clock)
        key, victims = interface_on_some_path(daemon, ases.remote_server)
        victim = min(victims)
        daemon.report_path_failure(ases.remote_server, victim, ttl_ms=100.0)
        daemon.apply_revocation(revoke(pki, key, ttl_ms=30_000.0))
        clock.now = 200.0  # quarantine lapsed, revocation still active
        fingerprints = {p.fingerprint()
                        for p in daemon.paths(ases.remote_server)}
        assert victim not in fingerprints
        assert not (fingerprints & victims)

    def test_report_purges_expired_quarantine_entries(self, control_plane):
        # Satellite fix: reports alone must not grow the quarantine map.
        _t, ases, _pki, _s, _c = control_plane
        clock = Clock()
        daemon = make_daemon(control_plane, clock=clock)
        daemon.paths(ases.remote_server)
        daemon.report_path_failure(ases.remote_server, "fp-old",
                                   ttl_ms=100.0)
        assert "fp-old" in daemon._dead_paths
        clock.now = 200.0
        daemon.report_path_failure(ases.remote_server, "fp-new",
                                   ttl_ms=100.0)
        assert "fp-old" not in daemon._dead_paths
        assert "fp-new" in daemon._dead_paths


class TestPathServerDegradation:
    def test_degraded_server_serves_stale_views(self, control_plane):
        import random

        _t, ases, pki, store, _c = control_plane
        server = PathServer(store)
        server.degradation_rng = random.Random("test-degraded")
        server.apply_revocation(revoke(pki, (ases.local_core, 7),
                                       ttl_ms=60_000.0))
        live = server.revocation_view(0.0)
        assert (ases.local_core, 7) in live
        server.begin_degradation(1.0)  # always stale
        # The stale snapshot predates later revocations.
        server.apply_revocation(revoke(pki, (ases.remote_core, 9),
                                       ttl_ms=60_000.0))
        stale = server.revocation_view(0.0)
        assert (ases.remote_core, 9) not in stale
        assert server.stats.stale_views_served >= 1
        server.end_degradation(1.0)
        healed = server.revocation_view(0.0)
        assert (ases.remote_core, 9) in healed

    def test_healthy_server_draws_no_rng(self, control_plane):
        import random

        _t, _ases, _pki, store, _c = control_plane
        server = PathServer(store)
        server.degradation_rng = random.Random("test-idle")
        before = server.degradation_rng.getstate()
        server.revocation_view(0.0)
        assert not server.drops_push()
        assert server.degradation_rng.getstate() == before

    def test_degraded_without_rng_raises(self, control_plane):
        _t, _ases, _pki, store, _c = control_plane
        server = PathServer(store)
        server.degradation_rng = None
        server.begin_degradation(0.5)
        with pytest.raises(ReproError):
            server.revocation_view(0.0)


class TestEndToEndPropagation:
    def make_world(self, revocation=None):
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=11, revocation=revocation)
        client = internet.add_host("client", ases.client)
        internet.add_host("origin", ases.remote_server)
        return internet, ases, client

    def test_link_down_reaches_every_daemon_after_delay(self):
        internet, ases, client = self.make_world()
        client.daemon.paths(ases.remote_server)
        affected = internet.set_link_state(ases.local_core, ases.third_core,
                                           up=False)
        assert affected == 1
        # Origination is immediate; application waits one dissemination
        # delay.
        assert internet.revocations.stats.originated == 2
        assert client.daemon.stats.revocations_applied == 0
        assert internet.revocations.pending_propagations == 2
        internet.run()
        assert internet.loop.now == pytest.approx(
            DEFAULT_PROPAGATION_DELAY_MS)
        assert client.daemon.stats.revocations_applied == 2
        assert internet.path_server.stats.revocations_applied == 2
        assert internet.revocations.pending_propagations == 0
        # A host that never touched the link no longer offers paths
        # through it.
        revoked = internet.revocations.active_keys(internet.loop.now)
        for path in client.daemon.paths(ases.remote_server):
            assert not (revoked & path.interface_set())

    def test_recovery_lifts_and_readmits(self):
        internet, ases, client = self.make_world()
        before = {p.fingerprint()
                  for p in client.daemon.paths(ases.remote_server)}
        internet.set_link_state(ases.local_core, ases.third_core, up=False)
        internet.run()
        during = {p.fingerprint()
                  for p in client.daemon.paths(ases.remote_server)}
        assert during < before
        internet.set_link_state(ases.local_core, ases.third_core, up=True)
        internet.run()
        assert internet.revocations.stats.lifted == 2
        assert client.daemon.stats.revocations_lifted == 2
        after = {p.fingerprint()
                 for p in client.daemon.paths(ases.remote_server)}
        assert after == before

    def test_disabled_world_originates_nothing(self):
        internet, ases, client = self.make_world(revocation=False)
        client.daemon.paths(ases.remote_server)
        internet.set_link_state(ases.local_core, ases.third_core, up=False)
        internet.run()
        assert internet.revocations.stats.originated == 0
        assert client.daemon.stats.revocations_applied == 0

    def test_span_events_trace_the_pipeline(self):
        internet, ases, _client = self.make_world()
        tracer = Tracer(internet.loop)
        internet.revocations.tracer = tracer
        internet.set_link_state(ases.local_core, ases.third_core, up=False)
        internet.run()
        spans = tracer.spans_named("revocation")
        assert len(spans) == 2
        for span in spans:
            names = [event.name for event in span.events]
            assert names[0] == "revocation.originate"
            assert "revocation.propagate" in names
            assert "revocation.apply" in names
            assert span.ended
        assert observe(internet, spans=tracer.spans).counter(
            "revocation_originated").value == 2.0

    def test_double_link_up_raises(self):
        internet, ases, _client = self.make_world()
        internet.set_link_state(ases.local_core, ases.third_core, up=False)
        internet.set_link_state(ases.local_core, ases.third_core, up=True)
        link = internet.topology.links()[0]
        with pytest.raises(ReproError):
            internet.revocations.link_up(link)

    def test_overlapping_down_causes_originate_once(self):
        internet, ases, _client = self.make_world()
        links = internet.links_between(ases.local_core, ases.third_core)
        interas = internet._interas_by_simnet[id(links[0])]
        service = internet.revocations
        service.link_down(interas)
        service.link_down(interas)  # second overlapping cause
        assert service.stats.originated == 2  # both endpoints, once
        service.link_up(interas)
        internet.run()
        assert service.stats.lifted == 0  # still one cause outstanding
        service.link_up(interas)
        internet.run()
        assert service.stats.lifted == 2


def test_service_standalone_without_path_server(control_plane):
    # The service tolerates worlds with no path server attached
    # (unit-style uses); propagation then reaches subscribers only.
    from repro.simnet.events import EventLoop

    _t, ases, pki, _s, _c = control_plane
    topology, _ases = remote_testbed()
    loop = EventLoop()
    service = RevocationService(loop=loop, pki=pki, enabled=True)

    class Sink:
        isd_as = ases.client
        applied: list = []
        lifted: list = []

        def apply_revocation(self, revocation):
            self.applied.append(revocation)

        def lift_revocation(self, key):
            self.lifted.append(key)

    sink = Sink()
    service.subscribe(sink)
    service.subscribe(sink)  # idempotent
    assert service.subscriber_count == 1
    link = topology.links()[0]
    service.link_down(link)
    loop.run()
    assert len(sink.applied) == 2
    service.link_up(link)
    loop.run()
    assert len(sink.lifted) == 2
    service.unsubscribe(sink)
    assert service.subscriber_count == 0
