"""The selector's per-destination memo answers exactly what a fresh
``order_paths`` over the current candidates answers.

A scripted browser session walks every way the candidate set or the
policy changes under the selector — a repeat lookup, a new geofence, a
dead-path quarantine, a pushed revocation, a circuit breaker's avoid
set and a path-expiry refresh — and compares each selection with the
verdict recomputed from scratch. The memo may keep one entry per
destination and nothing more.
"""

import pytest

from repro.core.extension.extension import BrowserExtension, ExtensionSettings
from repro.core.geofence import Geofence
from repro.core.ppl.evaluator import order_paths
from repro.core.ppl.policies import latency_optimized
from repro.core.skip.proxy import SkipProxy
from repro.core.skip.session import ChoiceKind, PathChoice
from repro.dns.resolver import Resolver
from repro.internet.build import Internet
from repro.scion.beaconing import BeaconingService
from repro.scion.daemon import PathDaemon
from repro.scion.path import EXP_TIME_UNIT_S
from repro.scion.path_server import PathServer
from repro.scion.revocation import Revocation
from repro.topology.defaults import remote_testbed
from repro.units import seconds


def fresh_choice(daemon, dst, policy, avoid):
    """The verdict recomputed from the daemon's current answer."""
    candidates = [path for path in daemon.try_paths(dst)
                  if path.fingerprint() not in avoid]
    if not candidates:
        return PathChoice(kind=ChoiceKind.NO_SCION)
    if policy is None:
        return PathChoice(kind=ChoiceKind.SCION_COMPLIANT,
                          path=candidates[0])
    ordered = order_paths(policy, candidates)
    if not ordered:
        return PathChoice(kind=ChoiceKind.POLICY_EXHAUSTED)
    return PathChoice(kind=ChoiceKind.SCION_COMPLIANT, path=ordered[0])


@pytest.fixture
def session():
    """A browser in a world whose beacons live one exp-time unit
    (337.5 s), so the session can outlive its paths."""
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=1)
    client = internet.add_host("client", ases.client)
    client.daemon = PathDaemon(
        isd_as=ases.client,
        path_server=PathServer(BeaconingService(
            topology, internet.pki, exp_time=0).build_store()),
        core_ases=set(internet.core_ases), clock=internet.loop)
    proxy = SkipProxy(client, Resolver(internet.loop), breaker=True)
    extension = BrowserExtension(
        proxy, ExtensionSettings(extra_policies=[latency_optimized()]))
    return internet, topology, ases, extension


def test_every_step_matches_a_fresh_ordering(session):
    internet, topology, ases, extension = session
    proxy = extension.proxy
    daemon = proxy.host.daemon
    selector = proxy.selector
    dst, other = ases.remote_server, ases.third_server
    loop = internet.loop
    picked = []

    def step(destination=dst, avoid=frozenset()):
        choice = selector.choose(destination, proxy.policy, avoid=avoid)
        expected = fresh_choice(daemon, destination, proxy.policy, avoid)
        assert choice == expected
        assert choice.path is expected.path
        assert set(selector._last) <= {dst, other}
        picked.append(choice)
        return choice

    best = step().path
    assert step() is picked[0]                       # a repeat is a hit
    step(other)
    assert step() is picked[0]                       # one entry per dst

    extension.set_geofence(Geofence(blocked_isds={3}))
    assert step().path is not best                   # new policy object
    extension.set_geofence(Geofence())
    assert step().path is best

    daemon.report_path_failure(dst, best.fingerprint(), ttl_ms=1_000.0)
    assert step().path is not best                   # quarantined
    loop.run(until=loop.now + 2_000.0)
    assert step().path is best                       # quarantine lapsed

    others = [path for path in daemon.paths(dst) if path is not best]
    key = min(best.interface_set().difference(
        *(path.interface_set() for path in others)))
    daemon.apply_revocation(Revocation.originate(
        internet.pki, key[0], key[1], issued_ms=loop.now, ttl_ms=1_000.0))
    assert step().path is not best                   # revoked
    loop.run(until=loop.now + 2_000.0)
    assert step().path is best                       # revocation lapsed

    proxy.breakers.record_failure(best.fingerprint(), loop.now, 1_000.0)
    avoid = proxy._avoided_paths()
    assert best.fingerprint() in avoid
    assert step(avoid=avoid).path is not best        # breaker avoid set
    assert step().path is best

    loop.run(until=seconds(EXP_TIME_UNIT_S) + 1.0)
    daemon.path_server = PathServer(BeaconingService(
        topology, internet.pki, exp_time=0,
        timestamp=int(EXP_TIME_UNIT_S) + 1).build_store())
    refreshed = step().path                          # expiry refresh
    assert refreshed.fingerprint() == best.fingerprint()  # same route,
    assert refreshed.timestamp > best.timestamp           # new beacons
    assert step(other).path is not picked[2].path
    assert set(selector._last) == {dst, other}
