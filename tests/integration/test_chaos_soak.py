"""Chaos soak: repeated traced loads under random faults leak nothing.

Excluded from the default run (marked ``chaos``); invoke with
``pytest -m chaos``. Each load runs opportunistic mode against a
randomly drawn fault schedule; afterwards every shared resource the
stack pools — CPU slots, HTTP connections, spans — must be back at
rest.
"""

import pytest

from repro.experiments.fault_battery import build_fault_world
from repro.experiments.population import (build_population_world,
                                          population_leak_report,
                                          start_sessions)
from repro.simnet.faults import inject, random_schedule
from repro.workload import ArrivalCurve

LOADS = 10
SOAK_WINDOW_MS = 180_000.0


def assert_client_pools_quiescent(client):
    for key, pool in client._pools.items():
        assert pool.opening == 0, f"{key}: connection still opening"
        assert not pool.waiters, f"{key}: waiter leaked"
        for pooled in pool.connections:
            assert not pooled.busy, f"{key}: pooled stream leaked busy"


@pytest.mark.chaos
class TestChaosSoak:
    @pytest.mark.parametrize("seed", [9001, 9002])
    def test_soak_leaves_no_leaked_resources(self, seed):
        world = build_fault_world(seed, n_resources=5, obs=True)
        ases = world.ases
        schedule = random_schedule(
            seed, SOAK_WINDOW_MS,
            targets=(f"{ases.local_core}~{ases.third_core}",
                     f"{ases.client}~{ases.local_core}", "*"),
            n_faults=6)
        inject(world.internet, schedule)

        completed = 0
        for _ in range(LOADS):
            result = world.internet.loop.run_process(
                world.browser.load(world.page))
            assert result.plt_ms >= 0.0
            completed += 1
        assert completed == LOADS

        tracer = world.tracer
        assert tracer is not None
        assert tracer.open_spans() == [], "span leaked open after soak"
        assert len(tracer.spans_named("page.load")) == LOADS

        browser = world.browser
        assert browser.extension.cpu.in_use == 0
        assert browser.proxy.cpu.in_use == 0
        assert_client_pools_quiescent(browser.proxy.client)
        assert_client_pools_quiescent(
            browser._direct_engine.fetcher.client)

        # Revocation dissemination and circuit breakers must be at rest
        # too: once the schedule's tail events settle, no propagation
        # timer is pending, no subscription was leaked (exactly the two
        # hosts' daemons), and no half-open probe is still outstanding.
        world.internet.run()
        revocations = world.internet.revocations
        assert revocations.pending_propagations == 0, \
            "revocation propagation timer leaked"
        assert revocations.subscriber_count == 2, \
            "revocation subscription leaked"
        assert browser.proxy.breakers.probes_in_flight == 0, \
            "half-open breaker probe leaked"

    @pytest.mark.parametrize("seed", [9101, 9102])
    def test_interrupted_population_run_leaks_nothing(self, seed):
        """A population run cut off mid-city — every session process
        interrupted while loads are still in flight — must leave every
        pooled resource at rest once the interrupts drain: per-user HTTP
        pools, extension/proxy CPU slots, spans, and revocation
        timers."""
        world = build_population_world(
            "opportunistic-SCION", seed, users=12, sites=8,
            arrival=ArrivalCurve(window_ms=2_000.0), obs=True)
        processes = start_sessions(world)
        loop = world.internet.loop
        loop.run(until=1_200.0)  # mid-flight: sessions started, none done
        for process in processes:
            if not process.triggered:
                process.interrupt("chaos soak shutdown")
        loop.run()
        leaks = population_leak_report(world)
        assert leaks == [], "\n".join(leaks)

    @pytest.mark.parametrize("seed", [9103])
    def test_completed_population_run_leaks_nothing(self, seed):
        """The same audit on a run that finishes naturally."""
        world = build_population_world(
            "strict-SCION", seed, users=10, sites=8,
            arrival=ArrivalCurve(window_ms=2_000.0), obs=True)
        processes = start_sessions(world)
        world.internet.loop.run()
        assert all(process.triggered for process in processes)
        assert all(process.exception is None for process in processes)
        leaks = population_leak_report(world)
        assert leaks == [], "\n".join(leaks)
