"""``observe``: one read of a world, the same whoever is watching."""

import functools

import pytest

from repro.experiments.fault_battery import fault_load
from repro.experiments.harness import load_page, observe_world
from repro.experiments.local_setup import figure3_load
from repro.experiments.remote_setup import FAR_ORIGIN, remote_load

#: One Figure-3 cell, one remote cell, the link-flap chaos cell.
LOADS = {
    "figure3": functools.partial(figure3_load, "mixed SCION-IP", seed=100),
    "remote": functools.partial(remote_load, FAR_ORIGIN,
                                "single origin / SCION", seed=500),
    "link-flap": functools.partial(fault_load, "link-flap", "opportunistic",
                                   seed=500),
}


def unwatched(snapshot: dict) -> dict:
    """The keys an untraced world has too (everything but rule 2)."""
    return {kind: {key: value for key, value in family.items()
                   if not key.startswith("span_")}
            for kind, family in snapshot.items()}


@pytest.mark.parametrize("name", LOADS)
class TestCountsDoNotDependOnWhoIsWatching:
    def test_traced_equals_untraced_off_the_span_families(self, name):
        plain, plain_result = LOADS[name](obs=False)
        traced, traced_result = LOADS[name](obs=True)
        assert traced_result.plt_ms == plain_result.plt_ms
        plain_snapshot = observe_world(plain).snapshot()
        traced_snapshot = observe_world(traced).snapshot()
        assert plain_snapshot == unwatched(plain_snapshot)  # no spans
        assert unwatched(traced_snapshot) == plain_snapshot
        # What ``plt_ms`` was: the page load's span is the page load.
        status = "error" if plain_result.failed else "ok"
        page_loads = traced_snapshot["histograms"][
            f"span_ms{{span=page.load,status={status}}}"]
        assert page_loads["sum"] == plain_result.plt_ms

    def test_reading_twice_reads_the_same_and_moves_nothing(self, name):
        looked_at, _result = LOADS[name](obs=True)
        left_alone, _result = LOADS[name](obs=True)
        first = observe_world(looked_at).snapshot()
        assert observe_world(looked_at).snapshot() == first
        # The next load neither knows nor cares that somebody looked.
        assert load_page(looked_at).plt_ms == load_page(left_alone).plt_ms
        assert observe_world(looked_at).snapshot() \
            == observe_world(left_alone).snapshot()


class TestLinkGaugesReadTheLinks:
    def test_fast_path_bytes_are_counted(self):
        """The packet-trace ring never sees an analytic transfer (and
        forgets once it wraps); ``Link.bytes_sent`` is credited by both
        engines."""
        world, _result = LOADS["remote"](obs=False)
        assert world.internet.fastpath.stats.transfers > 0
        metrics = observe_world(world)
        per_link = metrics.gauges_named("link_bytes_sent")
        assert len(per_link) == len(world.internet.network.links)
        assert sum(per_link.values()) \
            == world.internet.network.stats()["bytes_sent"] > 0

    def test_one_name_per_quantity(self):
        world, _result = LOADS["figure3"](obs=True)
        counters = observe_world(world).snapshot()["counters"]
        resolver = world.browser.resolver
        assert counters["dns_queries"] == resolver.queries == 13
        assert counters["dns_cache_hits"] == resolver.cache_hits == 11
