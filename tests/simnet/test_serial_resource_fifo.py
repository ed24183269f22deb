"""Regression: SerialResource wakeup order after the deque change.

``SerialResource._waiters`` moved from ``list.pop(0)`` to
``collections.deque.popleft()`` for O(1) wakeup; the resource's FIFO
guarantee (oldest waiter first, capacity respected, single-threaded
serialization preserved) must survive exactly.
"""

from collections import deque

from repro.simnet.events import EventLoop, SerialResource


class TestSerialResourceFifo:
    def test_waiters_is_a_deque(self, loop):
        assert isinstance(SerialResource(loop)._waiters, deque)

    def test_wakeup_order_is_strict_fifo(self, loop):
        resource = SerialResource(loop, capacity=1)
        order = []

        def worker(label: str, hold_ms: float):
            yield resource.acquire()
            order.append(label)
            yield loop.timeout(hold_ms)
            resource.release()

        for index in range(6):
            loop.process(worker(f"w{index}", 1.0))
        loop.run()
        assert order == [f"w{index}" for index in range(6)]

    def test_fifo_under_interleaved_arrivals(self, loop):
        """Waiters that arrive while earlier ones hold the resource are
        served strictly in arrival order, not in release proximity."""
        resource = SerialResource(loop, capacity=1)
        order = []

        def worker(label: str):
            yield resource.acquire()
            order.append(label)
            yield loop.timeout(5.0)
            resource.release()

        def staggered_spawn():
            for index in range(5):
                loop.process(worker(f"late{index}"))
                yield loop.timeout(1.0)

        loop.process(worker("first"))
        loop.process(staggered_spawn())
        loop.run()
        assert order == ["first"] + [f"late{index}" for index in range(5)]

    def test_capacity_respected_with_queue(self, loop):
        resource = SerialResource(loop, capacity=2)
        active = []
        peak = []

        def worker(label: str):
            yield resource.acquire()
            active.append(label)
            peak.append(len(active))
            yield loop.timeout(2.0)
            active.remove(label)
            resource.release()

        for index in range(7):
            loop.process(worker(f"w{index}"))
        loop.run()
        assert max(peak) == 2
        assert not active

    def test_serialized_completion_times(self, loop):
        """N holders of a capacity-1 resource finish at t = hold, 2*hold,
        ... — the serialization property the browser-extension model
        relies on for the N x (extension + proxy) PLT penalty."""
        resource = SerialResource(loop, capacity=1)
        finished = []

        def worker():
            yield from resource.use(10.0)
            finished.append(loop.now)

        for _ in range(4):
            loop.process(worker())
        loop.run()
        assert finished == [10.0, 20.0, 30.0, 40.0]


class TestInterruptedWaiter:
    """A process interrupted while it waits in :meth:`SerialResource.use`
    must not take a unit with it: the processes queued behind it still
    run, and the resource ends idle."""

    def test_interrupt_while_queued(self, loop):
        resource = SerialResource(loop, capacity=1)
        ran = []

        def worker(label: str, hold_ms: float):
            yield from resource.use(hold_ms)
            ran.append((label, loop.now))

        loop.process(worker("a", 10.0))
        b = loop.process(worker("b", 10.0))
        loop.process(worker("c", 10.0))

        def interrupter():
            yield loop.timeout(5.0)
            b.interrupt("gave up")

        loop.process(interrupter())
        loop.run()
        assert ran == [("a", 10.0), ("c", 20.0)]
        assert resource.in_use == 0
        assert not resource._waiters

    def test_interrupt_after_grant_before_resume(self, loop):
        resource = SerialResource(loop, capacity=1)
        holder = resource.acquire()
        assert holder.triggered
        ran = []

        def worker(label: str):
            yield from resource.use(1.0)
            ran.append((label, loop.now))

        b = loop.process(worker("b"))
        loop.process(worker("c"))
        loop.run(until=2.0)
        assert len(resource._waiters) == 2
        # The unit passes to b's waiter, but b is interrupted before its
        # wakeup runs: b must hand the unit on to c.
        resource.release()
        b.interrupt("gave up")
        loop.run()
        assert ran == [("c", 3.0)]
        assert resource.in_use == 0
        assert not resource._waiters
