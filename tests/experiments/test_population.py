"""Population battery: determinism (serial, pooled), metric sanity, and
the leak audit.

The contract this file pins: a population trial is a pure function of
``(mode, seed, users, sites, arrival, session)`` — the same city
replays bit-for-bit whether it runs serially or fanned out over a
worker pool.
"""

import hashlib

import pytest

from repro.experiments import population as pop
from repro.experiments.__main__ import main
from repro.experiments.harness import run
from repro.workload import ArrivalCurve

FAST = ArrivalCurve(window_ms=2_000.0)


class TestDeterminism:
    def test_same_seed_same_sample(self):
        a = pop.population_trial("opportunistic-SCION", 950, users=10,
                                 sites=8, arrival=FAST)
        b = pop.population_trial("opportunistic-SCION", 950, users=10,
                                 sites=8, arrival=FAST)
        assert a == b

    def test_different_seeds_differ(self):
        a = pop.population_trial("opportunistic-SCION", 950, users=10,
                                 sites=8, arrival=FAST)
        b = pop.population_trial("opportunistic-SCION", 951, users=10,
                                 sites=8, arrival=FAST)
        assert a != b

    def test_serial_equals_worker_pool(self):
        """The whole battery — every mode, every field — bit-identical
        between workers=1 and workers=4."""
        kwargs = dict(users=8, sites=8, trials=1, base_seed=952,
                      arrival=FAST)
        serial = run(pop.POPULATION, workers=1, **kwargs)
        parallel = run(pop.POPULATION, workers=4, **kwargs)
        assert serial.samples == parallel.samples


class TestRecordedRun:
    """The simulated result of one small city. The packet-level twin is
    the value recorded at the commit before the fast path learned to
    judge contention at the transmitter — engine edits must change the
    simulator's speed only; if it moves, the science moved. The
    fast-path run was re-recorded with that change: every transfer but
    four now commits, and its PLTs agree with the oracle's to round-off
    (mean 364.76885802535 vs 364.76885802534 ms; 364.7649 before)."""

    def _replay(self, events, packets, sent_bytes, digest):
        world = pop.build_population_world("opportunistic-SCION", 950,
                                           users=10, sites=8, arrival=FAST)
        processes = pop.start_sessions(world)
        world.internet.run()
        rows = pop.harvest_rows(processes)
        internet = world.internet
        assert internet.loop.events_processed == events
        assert internet.network.stats() == {
            "links": 25, "nodes": 25, "packets_sent": packets,
            "packets_dropped": 0, "bytes_sent": sent_bytes}
        for router in internet.routers.values():
            assert (router.mac_failures, router.path_errors,
                    router.expired_drops, router.no_route,
                    router.no_host) == (0, 0, 0, 0, 0)
        assert len(rows) == 32
        plts = ",".join(row[2].hex() for row in rows)
        assert hashlib.sha256(plts.encode()).hexdigest() == digest

    def test_small_city_replays_the_recorded_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        self._replay(10480, 48154, 31326606, (
            "f8a8cd14030ae16c1091abdfb54895e84d6a488986d45b4f6d73a59ca75eadd7"))

    def test_small_city_packet_level_replays_the_parents_run(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        self._replay(109172, 48154, 31326606, (
            "e0e3d6429edce10d497dd0ad755ab3b2cdb6e4f5ac9379341da2b27649cb98cf"))


class TestMetrics:
    @pytest.fixture(scope="class")
    def sample(self):
        return pop.population_trial("opportunistic-SCION", 960, users=12,
                                    sites=8, arrival=FAST)

    def test_loads_complete_without_failures(self, sample):
        assert sample.loads >= 12  # at least one visit per user
        assert sample.failed_loads == 0

    def test_percentiles_are_ordered(self, sample):
        assert 0.0 < sample.plt_p50_ms <= sample.plt_p95_ms \
            <= sample.plt_p99_ms

    def test_control_plane_load_is_measured(self, sample):
        assert sample.path_server_lookups > 0
        assert sample.path_server_qps > 0.0
        assert sample.daemon_queries > 0
        assert 0.0 < sample.daemon_cache_hit_rate <= 1.0

    def test_per_as_utilization_is_attributed(self, sample):
        ases = dict(sample.as_link_bytes)
        busy = [isd_as for isd_as, sent in ases.items() if sent > 0]
        assert len(busy) >= 2  # idle inter-AS links may report zero
        assert all(sent >= 0 for sent in ases.values())

    def test_baseline_mode_never_touches_scion(self):
        baseline = pop.population_trial("BGP/IP-only", 960, users=8,
                                        sites=8, arrival=FAST)
        assert baseline.scion_fetches == 0
        assert baseline.daemon_queries == 0
        assert baseline.loads > 0


class TestPercentileHelper:
    def test_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert pop.percentile(values, 0.0) == 10.0
        assert pop.percentile(values, 1.0) == 40.0
        assert pop.percentile(values, 0.5) == 25.0

    def test_single_value(self):
        assert pop.percentile([7.0], 0.99) == 7.0


class TestReport:
    def test_render_and_json_round_trip(self):
        result = run(pop.POPULATION, users=8, sites=8, trials=1,
                     base_seed=955, arrival=FAST, workers=1)
        text = result.render()
        for mode in pop.MODES:
            assert mode in text
        payload = result.to_json()
        assert set(payload["modes"]) == set(pop.MODES)
        assert payload["users"] == 8
        assert result.busiest_ases()


class TestSelftest:
    def test_selftest_passes(self):
        """``python -m repro.experiments population --selftest``, at
        the size the CLI runs it."""
        assert main(["population", "--selftest"]) == 0


class TestLeakAudit:
    def test_interrupted_run_is_clean(self):
        world = pop.build_population_world(
            "opportunistic-SCION", 956, users=8, sites=8, arrival=FAST,
            obs=True)
        processes = pop.start_sessions(world)
        loop = world.internet.loop
        loop.run(until=800.0)
        for process in processes:
            if not process.triggered:
                process.interrupt("test shutdown")
        loop.run()
        assert pop.population_leak_report(world) == []
