"""Fault-injected results, as recorded at the commit before path-health
ranking, the sharded core and the pooling/memo switches were deleted.

The benchmark pins the fault-free worlds and the flash crowd; these pins
cover what it does not: every failover, fallback, time-to-recover and
shed count of the chaos, resilience and overload batteries. If one of
these digests moves, a simulated result moved.
"""

import dataclasses
import hashlib

from repro.experiments.fault_battery import CHAOS
from repro.experiments.harness import run
from repro.experiments.overload import ARMS, overload_trial
from repro.experiments.resilience_battery import RESILIENCE


def _canonical(value) -> str:
    """Floats by their exact bits, everything else by ``repr``."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return "(" + ",".join(
            f"{f.name}={_canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)) + ")"
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    return repr(value)


def _digest(cells) -> str:
    text = ";".join(f"{key!r}:{_canonical(cell)}" for key, cell in cells)
    return hashlib.sha256(text.encode()).hexdigest()


class TestRecordedRun:
    def test_fault_battery_replays_the_recorded_run(self):
        battery = run(CHAOS, trials=3, workers=1)
        assert len(battery.cells) == 14
        assert _digest(battery.cells.items()) == (
            "b8c2fbacd9f48013bee26d9fae59668e3e68b4a6f2e9912cd57a9f17c08a857e")

    def test_resilience_battery_replays_the_recorded_run(self):
        battery = run(RESILIENCE, trials=2, workers=1)
        assert len(battery.cells) == 4
        assert _digest(battery.cells.items()) == (
            "2c9b80590e07fd5fa756904bdc0fd1a7ccdd0a937c686576eec9e20c7db76fad")

    # The overload world is the one recorded run the fast path takes
    # part in (the fault worlds pin it off). The packet-level twin is
    # the parent's value; the fast-path digest was re-recorded when
    # contention moved to the transmitter (952 of 3,028 transfers
    # commit instead of 772; p99 PLTs within 0.2 % of the oracle's).

    def test_overload_arms_replay_the_recorded_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        samples = [(arm, overload_trial(arm, 1200)) for arm in ARMS]
        assert _digest(samples) == (
            "8bb37428dbb45d9d1e6366a2fb3345558eb53ec4335bd855a0f82283f5f403a8")

    def test_overload_arms_packet_level_replay_the_parents_run(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        samples = [(arm, overload_trial(arm, 1200)) for arm in ARMS]
        assert _digest(samples) == (
            "99f22ee17996ca4c8793ac7272ded0831d8cbaea2e5c56e2eb542a34a03ccb94")
