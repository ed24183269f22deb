"""Box-plot statistics and trial running."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.experiments.harness import (PLT, Battery, BoxStats,
                                       ExperimentResult, run_samples)


class TestBoxStats:
    def test_known_values(self):
        stats = BoxStats.from_samples([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.minimum == 1.0
        assert stats.median == 3.0
        assert stats.maximum == 5.0
        assert stats.mean == 3.0
        assert stats.q1 == 2.0
        assert stats.q3 == 4.0

    def test_single_sample(self):
        stats = BoxStats.from_samples([7.0])
        assert stats.median == 7.0
        assert stats.std == 0.0
        assert stats.n == 1

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            BoxStats.from_samples([])

    def test_row_renders(self):
        row = BoxStats.from_samples([1.0, 2.0]).row("cond")
        assert "cond" in row and "med=" in row

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_invariants_property(self, samples):
        stats = BoxStats.from_samples(samples)
        assert stats.minimum <= stats.q1 <= stats.median \
            <= stats.q3 <= stats.maximum
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.n == len(samples)


class TestRunCondition:
    def test_seeds_are_distinct_and_sequential(self):
        seen = []
        run_samples(lambda seed: seen.append(seed) or float(seed),
                    range(10, 14))
        assert seen == [10, 11, 12, 13]

    def test_summary_over_trials(self):
        stats = BoxStats.from_samples(
            run_samples(lambda seed: float(seed), range(5)))
        assert stats.minimum == 0.0
        assert stats.maximum == 4.0


class TestExperimentResult:
    def test_render_contains_conditions_and_notes(self):
        battery = Battery("x", "X", "X", holds=bool, columns=(PLT,),
                          heading="X", description=lambda trials: "desc",
                          note="shape holds")
        result = ExperimentResult(battery, {("a",): [1.0]})
        text = result.render()
        assert "== X ==" in text
        assert "shape holds" in text
        assert result.median("a") == 1.0
