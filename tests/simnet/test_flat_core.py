"""The coroutine core schedules what it did before, with fewer frames.

``Event.succeed``, ``Timeout`` and ``Process._step`` push their heap
entries themselves instead of going through ``call_soon`` /
``call_later`` / ``_wait_on``; the entries and their sequence numbers
are the ones those calls pushed. ``EventLoop.active_process`` names the
process whose generator is running, as SimPy's ``env.active_process``
does, and a free ``SerialResource`` unit is taken with no wake-up.
"""

import pytest

from repro.errors import SimulationError
from repro.simnet.events import EventLoop, Interrupt, SerialResource


def test_timeout_pushes_the_entry_call_later_did(loop):
    loop.call_soon(lambda: None)
    timeout = loop.timeout(5.0, value="v")
    assert sorted(entry[:2] for entry in loop._queue) == [(0.0, 0),
                                                          (5.0, 1)]
    assert timeout._handle == 1 and loop._sequence == 2
    loop.run()
    assert timeout.triggered and timeout.value == "v" and loop.now == 5.0


def test_succeed_pushes_one_entry_per_callback_in_order(loop):
    event = loop.event()
    seen = []
    event.add_callback(lambda ev: seen.append(("a", ev.value)))
    event.add_callback(lambda ev: seen.append(("b", ev.value)))
    event.succeed(7)
    assert [entry[1] for entry in loop._queue] == [0, 1]
    loop.run()
    assert seen == [("a", 7), ("b", 7)]


def test_fail_carries_its_exception_and_triggers_once(loop):
    event = loop.event()
    error = ValueError("x")
    event.fail(error)
    assert event.triggered and event.exception is error and not event.ok
    with pytest.raises(SimulationError):
        event.fail(ValueError("again"))
    with pytest.raises(SimulationError):
        event.succeed()
    assert event.exception is error


def test_active_process_is_set_only_while_a_generator_runs(loop):
    seen = []

    def body():
        seen.append(loop.active_process)
        try:
            yield loop.timeout(1.0)
        except Interrupt:
            seen.append(loop.active_process)
        yield loop.event().succeed()
        seen.append(loop.active_process)

    process = loop.process(body())
    loop.call_later(0.5, process.interrupt, "stop")
    assert loop.active_process is None
    loop.run()
    assert seen == [process, process, process]
    assert loop.active_process is None


def test_active_process_is_cleared_when_a_generator_raises(loop):
    def body():
        yield loop.timeout(1.0)
        raise RuntimeError("boom")

    process = loop.process(body())
    loop.run()
    assert isinstance(process.exception, RuntimeError)
    assert loop.active_process is None


def _reference_use(resource, duration_ms):
    """``use`` as it was: every unit through ``acquire``'s event."""
    event = resource.acquire()
    yield event
    try:
        yield resource.loop.timeout(duration_ms)
    finally:
        resource.release()


@pytest.mark.parametrize("capacity, workers, hold_ms",
                         [(1, 1, 2.0), (2, 2, 2.0), (1, 3, 2.0),
                          (2, 3, 0.0)])
def test_a_free_unit_costs_no_wake_up(capacity, workers, hold_ms):
    """Same holds and end times; each worker that found a unit free
    takes one loop event fewer — unless it holds for zero time, where
    the wake-up keeps its release behind same-instant work."""
    runs = {}
    for kind in ("use", "reference"):
        loop = EventLoop()
        resource = SerialResource(loop, capacity=capacity)
        done = []

        def worker(label, resource=resource, loop=loop, done=done,
                   kind=kind):
            if kind == "use":
                yield from resource.use(hold_ms)
            else:
                yield from _reference_use(resource, hold_ms)
            done.append((label, loop.now))

        for index in range(workers):
            loop.process(worker(index))
        loop.run()
        assert resource.in_use == 0
        runs[kind] = (done, loop.events_processed)
    assert runs["use"][0] == runs["reference"][0]
    saved = min(capacity, workers) if hold_ms > 0.0 else 0
    assert runs["use"][1] == runs["reference"][1] - saved


def test_interrupt_while_holding_a_free_unit_releases_it(loop):
    resource = SerialResource(loop, capacity=1)

    def holder():
        yield from resource.use(10.0)

    process = loop.process(holder())
    loop.call_later(1.0, process.interrupt, "stop")
    loop.run()
    assert isinstance(process.exception, Interrupt)
    assert resource.in_use == 0
    assert not loop._queue and not loop._cancelled
