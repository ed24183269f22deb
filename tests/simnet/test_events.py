"""Event loop, processes, and synchronization primitives."""

import pytest

from repro.errors import SimulationError
from repro.simnet.events import EventLoop, Interrupt, SerialResource


class TestScheduling:
    def test_starts_at_time_zero(self, loop):
        assert loop.now == 0.0

    def test_call_later_advances_time(self, loop):
        seen = []
        loop.call_later(5.0, seen.append, "a")
        loop.run()
        assert seen == ["a"]
        assert loop.now == 5.0

    def test_events_run_in_time_order(self, loop):
        seen = []
        loop.call_later(10.0, seen.append, "late")
        loop.call_later(1.0, seen.append, "early")
        loop.call_later(5.0, seen.append, "mid")
        loop.run()
        assert seen == ["early", "mid", "late"]

    def test_same_time_events_run_in_insertion_order(self, loop):
        seen = []
        for label in ("a", "b", "c"):
            loop.call_later(2.0, seen.append, label)
        loop.run()
        assert seen == ["a", "b", "c"]

    def test_negative_delay_rejected(self, loop):
        with pytest.raises(SimulationError):
            loop.call_later(-1.0, lambda: None)

    def test_call_at_in_the_past_rejected(self, loop):
        loop.call_later(5.0, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.call_at(1.0, lambda: None)

    def test_run_until_stops_before_future_events(self, loop):
        seen = []
        loop.call_later(10.0, seen.append, "future")
        loop.run(until=5.0)
        assert seen == []
        assert loop.now == 5.0
        loop.run()
        assert seen == ["future"]

    def test_run_until_advances_time_even_when_idle(self, loop):
        loop.run(until=42.0)
        assert loop.now == 42.0

    def test_max_events_guard(self, loop):
        def reschedule():
            loop.call_later(1.0, reschedule)

        loop.call_later(0.0, reschedule)
        with pytest.raises(SimulationError, match="runaway"):
            loop.run(max_events=100)

    def test_events_processed_counter(self, loop):
        for _ in range(3):
            loop.call_soon(lambda: None)
        loop.run()
        assert loop.events_processed == 3


class TestCancellation:
    def test_cancelled_callback_never_fires(self, loop):
        seen = []
        handle = loop.call_later(5.0, seen.append, "a")
        loop.cancel_scheduled(handle)
        loop.run()
        assert seen == []

    def test_cancelled_timer_does_not_stretch_the_run(self, loop):
        """A cancelled far-future timer must be invisible to the clock:
        the run ends when the last *live* event fires, not when the dead
        timer would have."""
        seen = []
        loop.call_later(2.0, seen.append, "live")
        handle = loop.call_later(10_000.0, seen.append, "dead")
        loop.cancel_scheduled(handle)
        loop.run()
        assert seen == ["live"]
        assert loop.now == 2.0

    def test_cancel_is_per_handle(self, loop):
        seen = []
        loop.call_later(1.0, seen.append, "first")
        handle = loop.call_later(1.0, seen.append, "second")
        loop.call_later(1.0, seen.append, "third")
        loop.cancel_scheduled(handle)
        loop.run()
        assert seen == ["first", "third"]

    def test_cancelled_timeout_never_triggers(self, loop):
        timeout = loop.timeout(5.0)
        timeout.cancel()
        loop.run()
        assert not timeout.triggered
        assert loop.now == 0.0

    def test_cancel_after_trigger_is_a_no_op(self, loop):
        timeout = loop.timeout(1.0)
        loop.run()
        assert timeout.triggered
        timeout.cancel()
        loop.run()
        assert timeout.triggered

    def test_a_drained_cancelled_set_is_replaced(self, loop):
        """A burst of cancellations leaves no table behind once the
        cancelled entries have left the queue."""
        handles = [loop.call_later(1.0 + i, lambda: None) for i in range(200)]
        for handle in handles:
            loop.cancel_scheduled(handle)
        burst = loop._cancelled
        loop.run()
        assert loop._cancelled == set() and loop._cancelled is not burst
        late = loop.call_later(1.0, lambda: None)
        loop.cancel_scheduled(late)
        assert loop._cancelled == {late}


class TestEvent:
    def test_succeed_delivers_value(self, loop):
        event = loop.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed(42)
        loop.run()
        assert seen == [42]

    def test_callback_after_trigger_still_fires(self, loop):
        event = loop.event()
        event.succeed("x")
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        loop.run()
        assert seen == ["x"]

    def test_double_trigger_rejected(self, loop):
        event = loop.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self, loop):
        event = loop.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_ok_property(self, loop):
        good = loop.event().succeed()
        bad = loop.event().fail(ValueError("boom"))
        assert good.ok and not bad.ok


class TestProcess:
    def test_process_returns_value(self, loop):
        def worker():
            yield loop.timeout(3.0)
            return "done"

        assert loop.run_process(worker()) == "done"
        assert loop.now == 3.0

    def test_timeout_value_passed_through(self, loop):
        def worker():
            value = yield loop.timeout(1.0, value="tick")
            return value

        assert loop.run_process(worker()) == "tick"

    def test_process_exception_propagates(self, loop):
        def worker():
            yield loop.timeout(1.0)
            raise RuntimeError("exploded")

        with pytest.raises(RuntimeError, match="exploded"):
            loop.run_process(worker())

    def test_failed_event_raises_inside_process(self, loop):
        event = loop.event()
        loop.call_later(1.0, event.fail, ValueError("bad"))

        def worker():
            with pytest.raises(ValueError, match="bad"):
                yield event
            return "recovered"

        assert loop.run_process(worker()) == "recovered"

    def test_deadlocked_process_detected(self, loop):
        def worker():
            yield loop.event()  # never triggered

        with pytest.raises(SimulationError, match="did not finish"):
            loop.run_process(worker())

    def test_yielding_non_event_fails_process(self, loop):
        def worker():
            yield 42  # type: ignore[misc]

        with pytest.raises(SimulationError, match="expected an Event"):
            loop.run_process(worker())

    def test_nested_yield_from(self, loop):
        def inner():
            yield loop.timeout(2.0)
            return 10

        def outer():
            value = yield from inner()
            yield loop.timeout(1.0)
            return value + 1

        assert loop.run_process(outer()) == 11
        assert loop.now == 3.0

    def test_interrupt_raises_in_process(self, loop):
        def worker():
            try:
                yield loop.timeout(100.0)
            except Interrupt as interrupt:
                return f"interrupted:{interrupt.cause}"
            return "finished"

        process = loop.process(worker())
        loop.call_later(5.0, process.interrupt, "reason")
        loop.run()
        assert process.value == "interrupted:reason"

    def test_interrupt_after_finish_is_noop(self, loop):
        def worker():
            yield loop.timeout(1.0)
            return "ok"

        process = loop.process(worker())
        loop.run()
        process.interrupt()
        loop.run()
        assert process.value == "ok"


class TestUnobservedFailures:
    """A process that raises while nothing waits on it is listed on its
    loop until something waits on it."""

    @staticmethod
    def handler(loop, error):
        yield loop.timeout(1.0)
        raise error

    def test_a_failure_nobody_waits_on_is_listed(self, loop):
        error = RuntimeError("respond broke")
        process = loop.process(self.handler(loop, error), name="handler")
        loop.run()
        assert list(loop.unobserved_failures) == [process]
        assert process.exception is error

    def test_a_failure_a_parent_yields_later_is_not(self, loop):
        process = loop.process(self.handler(loop, RuntimeError("late")))

        def parent():
            yield loop.timeout(5.0)  # the child has failed by now
            with pytest.raises(RuntimeError, match="late"):
                yield process
            return "seen"

        watcher = loop.process(parent())
        loop.run(until=3.0)
        assert list(loop.unobserved_failures) == [process]
        loop.run()
        assert watcher.value == "seen"
        assert loop.unobserved_failures == {}

    def test_a_failure_a_parent_waits_on_is_not(self, loop):
        def parent():
            with pytest.raises(RuntimeError):
                yield loop.process(self.handler(loop, RuntimeError()))

        loop.process(parent())
        loop.run()
        assert loop.unobserved_failures == {}

    def test_a_callback_added_later_observes_it(self, loop):
        process = loop.process(self.handler(loop, ValueError()))
        loop.run()
        seen = []
        process.add_callback(seen.append)
        loop.run()
        assert seen == [process] and loop.unobserved_failures == {}

    def test_combinators_observe_their_children(self, loop):
        children = [loop.process(self.handler(loop, ValueError()))
                    for _ in range(2)]
        any_of = loop.any_of(children)
        loop.run()
        assert any_of.exception is not None
        assert loop.unobserved_failures == {}

    def test_run_process_raises_what_it_reads(self, loop):
        with pytest.raises(KeyError):
            loop.run_process(self.handler(loop, KeyError("x")))
        assert loop.unobserved_failures == {}

    def test_successes_and_yielded_non_events(self, loop):
        def bad():
            yield 42  # type: ignore[misc]

        def good():
            yield loop.timeout(1.0)

        loop.process(good())
        process = loop.process(bad())
        loop.run()
        assert list(loop.unobserved_failures) == [process]


class TestCombinators:
    def test_all_of_collects_values(self, loop):
        def worker(delay, value):
            yield loop.timeout(delay)
            return value

        def main():
            processes = [loop.process(worker(d, d)) for d in (3.0, 1.0, 2.0)]
            values = yield loop.all_of(processes)
            return values

        assert loop.run_process(main()) == [3.0, 1.0, 2.0]
        assert loop.now == 3.0

    def test_all_of_empty_succeeds_immediately(self, loop):
        def main():
            values = yield loop.all_of([])
            return values

        assert loop.run_process(main()) == []

    def test_all_of_fails_on_first_failure(self, loop):
        def bad():
            yield loop.timeout(1.0)
            raise ValueError("bad child")

        def good():
            yield loop.timeout(5.0)

        def main():
            with pytest.raises(ValueError, match="bad child"):
                yield loop.all_of([loop.process(bad()), loop.process(good())])
            return "handled"

        assert loop.run_process(main()) == "handled"

    def test_any_of_returns_first(self, loop):
        def main():
            fast = loop.timeout(1.0, value="fast")
            slow = loop.timeout(9.0, value="slow")
            event, value = yield loop.any_of([fast, slow])
            return value, loop.now

        value, finished_at = loop.run_process(main())
        assert value == "fast"
        assert finished_at == 1.0

    def test_any_of_requires_events(self, loop):
        with pytest.raises(SimulationError):
            loop.any_of([])


class TestTimeoutStep:
    """A timeout runs its callbacks in its own step, as SimPy does."""

    def test_waiter_resumes_in_the_timeouts_own_step(self, loop):
        seen = []

        def sleeper():
            yield loop.timeout(2.0)
            seen.append(("woke", loop.now))

        loop.process(sleeper())
        # Scheduled after the timeout, for the same instant: a waiter
        # resumed one step after the expiry would run after it.
        loop.call_later(1.0, loop.call_at, 2.0, seen.append, "later")
        loop.run()
        assert seen == [("woke", 2.0), "later"]
        # The sleeper's start, the call_later, the expiry (which resumes
        # the sleeper) and the "later" entry: no step of the waiter's own.
        assert loop.events_processed == 4

    def test_every_callback_runs_in_order_within_the_expiry(self, loop):
        timeout = loop.timeout(1.0, value="v")
        seen = []
        timeout.add_callback(lambda event: seen.append(("a", event.value)))
        timeout.add_callback(lambda event: seen.append(("b", event.value)))
        loop.run()
        assert seen == [("a", "v"), ("b", "v")]
        assert loop.events_processed == 1
        # A callback added after the expiry still runs, one step later.
        timeout.add_callback(lambda event: seen.append(("c", event.value)))
        loop.run()
        assert seen[-1] == ("c", "v")
        assert loop.events_processed == 2

    def test_any_of_keeps_its_step(self, loop):
        """AnyOf is an ordinary event: its waiter still resumes one step
        after the timeout fired it, and the slower timeout is ignored."""

        def main():
            slow = loop.timeout(9.0, value="slow")
            event, value = yield loop.any_of(
                [loop.timeout(1.0, value="fast"), slow])
            at = loop.now
            slow.cancel()
            return value, at

        assert loop.run_process(main()) == ("fast", 1.0)
        assert loop.now == 1.0  # the cancelled timer did not stretch the run

    def test_all_of_keeps_its_values_and_order(self, loop):
        def main():
            values = yield loop.all_of([loop.timeout(3.0, value="c"),
                                        loop.timeout(1.0, value="a"),
                                        loop.timeout(2.0, value="b")])
            return values, loop.now

        assert loop.run_process(main()) == (["c", "a", "b"], 3.0)

    def test_cancelled_waiter_never_resumes(self, loop):
        seen = []

        def sleeper(timeout):
            yield timeout
            seen.append("woke")

        timeout = loop.timeout(5.0)
        loop.process(sleeper(timeout))
        loop.call_later(1.0, timeout.cancel)
        loop.run()
        assert seen == [] and not timeout.triggered
        assert loop.now == 1.0


class TestSerialResource:
    def test_serializes_two_users(self, loop):
        resource = SerialResource(loop)
        finish_times = []

        def worker():
            yield from resource.use(10.0)
            finish_times.append(loop.now)

        loop.process(worker())
        loop.process(worker())
        loop.run()
        assert finish_times == [10.0, 20.0]

    def test_capacity_allows_parallelism(self, loop):
        resource = SerialResource(loop, capacity=2)
        finish_times = []

        def worker():
            yield from resource.use(10.0)
            finish_times.append(loop.now)

        for _ in range(4):
            loop.process(worker())
        loop.run()
        assert finish_times == [10.0, 10.0, 20.0, 20.0]

    def test_fifo_ordering(self, loop):
        resource = SerialResource(loop)
        order = []

        def worker(label):
            yield from resource.use(1.0)
            order.append(label)

        for label in ("a", "b", "c"):
            loop.process(worker(label))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_release_without_acquire_rejected(self, loop):
        resource = SerialResource(loop)
        with pytest.raises(SimulationError):
            resource.release()

    def test_invalid_capacity_rejected(self, loop):
        with pytest.raises(SimulationError):
            SerialResource(loop, capacity=0)

    def test_in_use_tracking(self, loop):
        resource = SerialResource(loop)

        def worker():
            yield resource.acquire()
            assert resource.in_use == 1
            yield loop.timeout(1.0)
            resource.release()

        loop.run_process(worker())
        assert resource.in_use == 0
