"""Retry budgets: token buckets, refill, seeded backoff jitter."""

import random

import pytest

from repro.core.skip.retry_budget import LazyRandom, RetryBudget


def make_budget(**kwargs) -> RetryBudget:
    kwargs.setdefault("name", "client")
    kwargs.setdefault("enabled", True)
    return RetryBudget(**kwargs)


class TestTokenBucket:
    def test_burst_capacity_then_exhaustion(self):
        budget = make_budget(capacity=3.0, refill_per_sec=0.0)
        assert [budget.try_spend(0.0) for _ in range(5)] == \
            [True, True, True, False, False]
        assert budget.spent_total == 3
        assert budget.exhausted_total == 2

    def test_refill_restores_tokens_over_time(self):
        budget = make_budget(capacity=1.0, refill_per_sec=2.0)
        assert budget.try_spend(0.0)
        assert not budget.try_spend(100.0)  # only 0.2 tokens back
        assert budget.try_spend(600.0)      # >= 1 token refilled by now

    def test_refill_caps_at_capacity(self):
        budget = make_budget(capacity=2.0, refill_per_sec=1_000.0)
        budget.try_spend(0.0)
        budget.try_spend(10_000.0)
        assert budget._tokens == pytest.approx(1.0)

    def test_configure_retunes_and_refills(self):
        budget = make_budget(capacity=1.0, refill_per_sec=0.0)
        budget.try_spend(0.0)
        budget.configure(capacity=2.0, refill_per_sec=0.5)
        assert budget.capacity == 2.0
        assert budget.try_spend(0.0) and budget.try_spend(0.0)
        assert not budget.try_spend(0.0)


class TestBackoffJitter:
    def test_jitter_in_half_open_interval(self):
        budget = make_budget()
        for _ in range(50):
            assert 50.0 <= budget.jittered_backoff(100.0) < 150.0

    def test_jitter_stream_seeded_by_name(self):
        a1 = make_budget(name="alpha")
        a2 = make_budget(name="alpha")
        b = make_budget(name="beta")
        seq1 = [a1.jittered_backoff(100.0) for _ in range(5)]
        seq2 = [a2.jittered_backoff(100.0) for _ in range(5)]
        other = [b.jittered_backoff(100.0) for _ in range(5)]
        assert seq1 == seq2
        assert seq1 != other


class TestLazyRandom:
    def test_draws_are_those_of_the_seeded_stream(self):
        lazy, eager = LazyRandom("retry-jitter:c"), random.Random(
            "retry-jitter:c")
        assert [lazy.random() for _ in range(50)] == \
            [eager.random() for _ in range(50)]

    def test_no_state_until_the_first_draw(self):
        budget = make_budget()
        assert budget._jitter._rng is None
        budget.try_spend(0.0)
        assert budget._jitter._rng is None
        budget.jittered_backoff(100.0)
        assert budget._jitter._rng is not None


class TestDisabledBudget:
    def test_authorizes_everything_without_state(self):
        budget = make_budget(enabled=False, capacity=0.0)
        for _ in range(20):
            assert budget.try_spend(0.0)
        assert budget.spent_total == 0
        assert budget.exhausted_total == 0

    def test_backoff_unjittered(self):
        budget = make_budget(enabled=False)
        assert budget.jittered_backoff(100.0) == 100.0

    def test_knob_resolution_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRY_BUDGET", raising=False)
        assert RetryBudget(name="probe").enabled
        monkeypatch.setenv("REPRO_RETRY_BUDGET", "0")
        assert not RetryBudget(name="probe").enabled
