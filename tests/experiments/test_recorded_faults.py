"""Fault-injected results, as recorded at the commit before path-health
ranking, the sharded core and the pooling/memo switches were deleted.

The benchmark pins the fault-free worlds and the flash crowd; these pins
cover what it does not: every failover, fallback, time-to-recover and
shed count of the chaos, resilience and overload batteries. If one of
these digests moves, a simulated result moved. The chaos and resilience
runs also pin their rendered report blocks, recorded at the commit
before the batteries' hand-written result classes gave way to declared
columns.
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
    if isinstance(value, dict):
        return "(" + ",".join(
            f"{name}={_canonical(item)}" for name, item in value.items()) + ")"
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    return repr(value)


def _digest(cells) -> str:
    text = ";".join(f"{key!r}:{_canonical(cell)}" for key, cell in cells)
    return hashlib.sha256(text.encode()).hexdigest()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestRecordedRun:
    def test_fault_battery_replays_the_recorded_run(self):
        battery = run(CHAOS, trials=3, workers=1)
        assert len(battery.cells) == 14
        assert _digest(battery.cells.items()) == (
            "b8c2fbacd9f48013bee26d9fae59668e3e68b4a6f2e9912cd57a9f17c08a857e")
        assert _sha256(battery.render()) == (
            "e2551c41aeb98dbcda9e587d5e6b13e76eab4ee19d0038f3039218e38d57daed")

    def test_resilience_battery_replays_the_recorded_run(self):
        battery = run(RESILIENCE, trials=2, workers=1)
        assert len(battery.cells) == 4
        assert _digest(battery.cells.items()) == (
            "2c9b80590e07fd5fa756904bdc0fd1a7ccdd0a937c686576eec9e20c7db76fad")
        assert _sha256(battery.render()) == (
            "c478a42c2d6dc2a43e358b4cec96bb28284e3696b238a910f1f722ac06b7b8a1")

    # The overload world is the one recorded run the fast path takes
    # part in (the fault worlds pin it off). The fast-path digest was
    # re-recorded when contention moved to the transmitter (952 of
    # 3,028 transfers commit instead of 772; p99 PLTs within 0.2 % of
    # the oracle's). Both were re-recorded when a socket's receive
    # watchdog began to be cancelled on delivery: only each sample's
    # ``events`` moved (the stale timers no longer fire). Both were
    # re-recorded again when a superseded retransmission timer began to
    # be cancelled: only each sample's ``events`` and ``duration_ms``
    # moved (the last stale timer no longer stretches the run). Both
    # were re-recorded once more when a router's forwarding step joined
    # its packet's arrival event, a socket reader began to run in the
    # delivery event and a timeout began to resume its waiters in its
    # own step. Packet-level, only ``events`` moved (140,237 -> 73,627
    # on, 251,902 -> 132,649 off). With the fast path, ``events`` fell
    # too (126,164 -> 66,653 and 221,990 -> 123,177) and same-instant
    # events run in a new order: on, p50/p99 PLTs moved by at most
    # 2.1 ms; off, one more load succeeded (44 -> 43 failed), retry
    # amplification went 2.79 -> 2.89, burst p99 12,388 -> 12,558 ms
    # and drain 10,466 -> 10,776 ms. Both were re-recorded when a
    # request's watchdog became an interrupting timer, a free CPU unit
    # stopped costing a wake-up and the coroutine core began to push its
    # own heap entries: only each sample's ``events`` moved (on 66,653
    # -> 65,141 and 123,177 -> 120,145; off 73,627 -> 72,124 and
    # 132,649 -> 129,685).

    def test_overload_arms_replay_the_recorded_run(self, overload_samples):
        samples = [(arm, overload_samples[arm]) for arm in ARMS]
        assert _digest(samples) == (
            "569877ed52f18978d28c79e5e18b737a4107f0e18196331c41ef64a026be8f34")

    def test_overload_arms_packet_level_replay_the_parents_run(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        samples = [(arm, overload_trial(arm, 1200)) for arm in ARMS]
        assert _digest(samples) == (
            "7f5b04262dce0eb0db4084e20b8a2d57132621d9975d8f782473ae671a48a600")
