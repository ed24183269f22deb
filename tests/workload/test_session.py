"""Session plans: determinism and locality semantics."""

import dataclasses

from repro.workload import SessionConfig, plan_session
from repro.workload.catalog import default_catalog
from repro.workload.session import MAX_VISITS

CATALOG = default_catalog(12, ("far.example", "near.example"), seed=3)


class TestDeterminism:
    def test_same_seed_same_plan(self):
        a = plan_session(CATALOG, user_id=5, seed=42)
        b = plan_session(CATALOG, user_id=5, seed=42)
        assert a == b

    def test_streams_are_per_user(self):
        plans = [plan_session(CATALOG, user_id=u, seed=42)
                 for u in range(20)]
        assert len(set(plans)) > 1

    def test_streams_are_per_seed(self):
        a = plan_session(CATALOG, user_id=5, seed=42)
        b = plan_session(CATALOG, user_id=5, seed=43)
        assert a != b


class TestShape:
    def test_visit_counts_respect_bounds(self):
        config = SessionConfig(mean_visits=4.0, min_visits=2)
        for user in range(50):
            plan = plan_session(CATALOG, user, seed=42, config=config)
            assert 2 <= len(plan) <= MAX_VISITS

    def test_tabs_respect_parallelism(self):
        config = SessionConfig(tab_parallelism=3, tab_probability=0.9)
        widths = set()
        for user in range(50):
            for visit in plan_session(CATALOG, user, seed=42,
                                      config=config):
                widths.add(len(visit.sites))
                assert 1 <= len(visit.sites) <= 3
        assert 3 in widths  # high tab probability actually opens tabs

    def test_think_times_are_positive(self):
        for user in range(20):
            for visit in plan_session(CATALOG, user, seed=42):
                assert visit.think_time_ms > 0.0

    def test_sites_index_into_the_catalog(self):
        for user in range(20):
            for visit in plan_session(CATALOG, user, seed=42):
                assert all(0 <= s < len(CATALOG) for s in visit.sites)


class TestLocality:
    REVISIT_HEAVY = SessionConfig(mean_visits=8.0, revisit_probability=1.0)

    def test_revisits_come_from_recent_history(self):
        seen: list[int] = []
        for visit in plan_session(CATALOG, 1, seed=42,
                                  config=self.REVISIT_HEAVY):
            for site in visit.sites:
                if seen:
                    # revisit_probability=1: every draw after the first
                    # returns to the locality window.
                    assert site in seen[-self.REVISIT_HEAVY.locality_window:]
                if site in seen:
                    seen.remove(site)
                seen.append(site)

    NO_LOCALITY = dataclasses.replace(REVISIT_HEAVY, locality=False)

    def test_locality_off_disables_revisits(self):
        plans = [plan_session(CATALOG, u, seed=42, config=self.NO_LOCALITY)
                 for u in range(20)]
        assert not any(v.revisit for plan in plans for v in plan)

    def test_locality_only_changes_decisions_not_the_stream(self):
        """The revisit roll is consumed either way: turning locality off
        keeps visit counts and tab widths identical."""
        on = plan_session(CATALOG, 1, seed=42, config=self.REVISIT_HEAVY)
        off = plan_session(CATALOG, 1, seed=42, config=self.NO_LOCALITY)
        assert len(on) == len(off)
        assert [len(v.sites) for v in on] == [len(v.sites) for v in off]
