"""Fixtures shared by the experiment tests."""

import pytest

from repro.experiments.overload import ARMS, overload_trial
from repro.internet.knobs import forced
from repro.simnet.fastpath import FASTPATH_ENV


@pytest.fixture(scope="session")
def overload_samples():
    """Each arm's default-regime overload trial at seed 1200, fast path
    on: run once per session and read by every test that needs it."""
    with forced(FASTPATH_ENV, True):
        return {arm: overload_trial(arm, 1200) for arm in ARMS}
