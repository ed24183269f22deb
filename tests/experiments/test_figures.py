"""The paper's figures reproduce their qualitative shapes.

These run the real experiment pipelines with reduced trial counts; the
assertions are on the *orderings and ratios the paper claims*, not on
absolute numbers (see EXPERIMENTS.md).
"""

import pytest

from repro.experiments.harness import run
from repro.experiments.local_setup import FIGURE3, figure3_trial
from repro.experiments.remote_setup import (
    FAR_ORIGIN,
    FIGURE5,
    FIGURE6,
    remote_trial,
)

TRIALS = 5


@pytest.fixture(scope="module")
def figure3():
    return run(FIGURE3, trials=TRIALS)


@pytest.fixture(scope="module")
def figure5():
    return run(FIGURE5, trials=TRIALS)


@pytest.fixture(scope="module")
def figure6():
    return run(FIGURE6, trials=TRIALS)


class TestFigure3Shape:
    def test_proxied_modes_pay_the_detour(self, figure3):
        baseline = figure3.median("BGP/IP-only")
        assert figure3.median("SCION-only") > baseline + 40
        assert figure3.median("mixed SCION-IP") > baseline + 40

    def test_scion_only_and_mixed_comparable(self, figure3):
        ratio = figure3.median("SCION-only") / figure3.median("mixed SCION-IP")
        assert 0.8 < ratio < 1.2

    def test_strict_shorter_than_full_loads(self, figure3):
        assert figure3.median("strict-SCION") < \
            0.7 * figure3.median("SCION-only")

    def test_baseline_fastest(self, figure3):
        baseline = figure3.median("BGP/IP-only")
        for condition in ("SCION-only", "mixed SCION-IP", "strict-SCION"):
            assert baseline < figure3.median(condition)

    def test_overhead_in_papers_regime(self, figure3):
        """'approximately 100 ms' — accept the 50-200 ms band."""
        overhead = figure3.median("SCION-only") - figure3.median("BGP/IP-only")
        assert 50 <= overhead <= 200

    def test_trials_are_reproducible(self):
        a = figure3_trial("mixed SCION-IP", seed=123)
        b = figure3_trial("mixed SCION-IP", seed=123)
        assert a == b


class TestFigure5Shape:
    def test_scion_wins_single_origin(self, figure5):
        assert figure5.median("single origin / SCION") < \
            0.85 * figure5.median("single origin / IPv4-6")

    def test_scion_wins_multi_origin(self, figure5):
        assert figure5.median("multiple origins / SCION") < \
            0.9 * figure5.median("multiple origins / IPv4-6")

    def test_win_comes_from_path_awareness(self):
        """The SCION PLT must be consistent with the detour's RTT, the
        IP PLT with the slow direct route."""
        scion = remote_trial(FAR_ORIGIN, "single origin / SCION", seed=0)
        ip = remote_trial(FAR_ORIGIN, "single origin / IPv4-6", seed=0)
        # one-way latencies: SCION detour ~52 ms, BGP direct ~81 ms
        assert scion < ip
        assert ip - scion > 100  # several RTTs of difference


class TestFigure6Shape:
    def test_scion_adds_small_overhead_locally(self, figure6):
        scion = figure6.median("single origin / SCION")
        ip = figure6.median("single origin / IPv4-6")
        assert scion > ip           # overhead exists ...
        assert scion < 3.0 * ip     # ... but is bounded

    def test_multi_origin_same_ordering(self, figure6):
        assert figure6.median("multiple origins / SCION") > \
            figure6.median("multiple origins / IPv4-6")

    def test_crossover_between_figures(self, figure5, figure6):
        """The headline claim: SCION wins when path choice matters
        (remote, Figure 5) and merely costs overhead when it doesn't
        (local, Figure 6)."""
        remote_gain = (figure5.median("single origin / IPv4-6")
                       - figure5.median("single origin / SCION"))
        local_loss = (figure6.median("single origin / SCION")
                      - figure6.median("single origin / IPv4-6"))
        assert remote_gain > 0
        assert local_loss > 0
        assert remote_gain > local_loss
