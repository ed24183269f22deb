"""Deterministic event loop with simulated time and generator processes.

The loop keeps a heap of ``(time, sequence, callback)`` entries. Time is a
float in milliseconds. The ``sequence`` counter makes scheduling stable:
events scheduled earlier run earlier when timestamps tie, which keeps every
simulation fully deterministic for a given seed.

On top of the raw callback scheduler sits a small coroutine layer in the
style of simpy: a :class:`Process` drives a generator that ``yield``\\ s
:class:`Event` objects; when the yielded event triggers, the process
resumes with the event's value (or the event's exception is thrown into
the generator). Protocol implementations (TCP, QUIC, HTTP) are written as
such processes, which keeps their state machines readable.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable, Generator
from typing import Any

from repro.errors import SimulationError


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it exactly once, after which its callbacks fire on the event
    loop (never synchronously, so triggering is safe from any context).
    """

    __slots__ = ("loop", "triggered", "value", "exception", "_callbacks")

    def __init__(self, loop: "EventLoop") -> None:
        self.loop = loop
        self.triggered = False
        self.value: Any = None
        self.exception: BaseException | None = None
        self._callbacks: list[Callable[[Event], None]] = []

    @property
    def ok(self) -> bool:
        """True once the event triggered successfully."""
        return self.triggered and self.exception is None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value``. Returns self for chaining."""
        self._trigger(value=value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception that will be raised in any
        waiting process."""
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception instance")
        self._trigger(exception=exception)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event triggers.

        If the event already triggered, the callback is scheduled to run
        immediately (at the current simulation time).
        """
        if self.triggered:
            self.loop.call_soon(callback, self)
        else:
            self._callbacks.append(callback)

    def _trigger(self, value: Any = None, exception: BaseException | None = None) -> None:
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        self.exception = exception
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self.loop.call_soon(callback, self)


class Timeout(Event):
    """An event that triggers automatically after a delay."""

    __slots__ = ("delay", "_handle")

    def __init__(self, loop: "EventLoop", delay: float, value: Any = None) -> None:
        super().__init__(loop)
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.delay = delay
        self._handle = loop.call_later(delay, self._expire, value)

    def cancel(self) -> None:
        """Withdraw the timer so it never triggers.

        A no-op once the timeout has fired. The deadline entry is
        removed from the loop's view of pending work, so an unexpired
        watchdog timer does not keep the simulation clock running to its
        deadline. Only the creator should cancel — other processes may
        already be waiting on this event.
        """
        if not self.triggered:
            self.loop.cancel_scheduled(self._handle)

    def _expire(self, value: Any) -> None:
        if not self.triggered:
            self.succeed(value)


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Drives a generator; itself an event that triggers when the
    generator returns (value = the generator's return value) or raises.
    """

    __slots__ = ("name", "_generator", "_waiting_on")

    def __init__(self, loop: "EventLoop", generator: Generator[Event, Any, Any],
                 name: str = "") -> None:
        super().__init__(loop)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Event | None = None
        loop.call_soon(self._step, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting an already-finished process is a no-op.
        """
        if self.triggered:
            return
        waiting, self._waiting_on = self._waiting_on, None
        self.loop.call_soon(self._throw, Interrupt(cause), waiting)

    # -- generator driving -------------------------------------------------

    def _step(self, event: Event | None) -> None:
        if self.triggered:
            return
        if event is not None and event is not self._waiting_on:
            return  # stale wakeup after an interrupt
        self._waiting_on = None
        if event is not None and event.exception is not None:
            self._throw(event.exception, None)
            return
        send_value = event.value if event is not None else None
        try:
            target = self._generator.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self.fail(exc)
            return
        self._wait_on(target)

    def _throw(self, exception: BaseException, stale: Event | None) -> None:
        del stale
        if self.triggered:
            return
        try:
            target = self._generator.throw(exception)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self.fail(exc)
            return
        self._wait_on(target)

    def _wait_on(self, target: Event) -> None:
        if not isinstance(target, Event):
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"))
            return
        self._waiting_on = target
        target.add_callback(self._step)


class AllOf(Event):
    """Triggers once every given event has triggered successfully.

    Value is the list of the events' values in the order given. Fails as
    soon as any constituent event fails.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, loop: "EventLoop", events: list[Event]) -> None:
        super().__init__(loop)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            loop.call_soon(lambda: self.succeed([]))
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._events])


class AnyOf(Event):
    """Triggers as soon as the first of the given events triggers.

    Value is a ``(event, value)`` tuple identifying which one fired.
    """

    __slots__ = ()

    def __init__(self, loop: "EventLoop", events: list[Event]) -> None:
        super().__init__(loop)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for event in events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
            return
        self.succeed((event, event.value))


class SerialResource:
    """A capacity-limited resource with FIFO waiting (like a mutex for
    ``capacity=1``).

    Used to model serialized execution contexts — e.g. a browser
    extension's single-threaded JavaScript event loop, or a proxy
    process's CPU — where concurrent requests queue up for processing
    time instead of overlapping it.
    """

    __slots__ = ("loop", "capacity", "_in_use", "_waiters")

    def __init__(self, loop: "EventLoop", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.loop = loop
        self.capacity = capacity
        self._in_use = 0
        # A deque keeps wakeup O(1); with a list, popping the head is O(n)
        # and dominates once many requests contend for one proxy CPU.
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Currently held units."""
        return self._in_use

    def acquire(self) -> Event:
        """An event that triggers once a unit is available (and takes it).

        Usage from a process: ``yield resource.acquire()`` ... work ...
        ``resource.release()``.
        """
        event = self.loop.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a unit; the oldest waiter (if any) gets it."""
        if self._in_use <= 0:
            raise SimulationError("release without acquire")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def use(self, duration_ms: float) -> Generator[Event, Any, None]:
        """Acquire, hold for ``duration_ms`` of simulated time, release.

        Usage: ``yield from resource.use(5.0)``.
        """
        yield self.acquire()
        try:
            yield self.loop.timeout(duration_ms)
        finally:
            self.release()


class EventLoop:
    """The simulation scheduler.

    All times are simulated milliseconds. The loop is strictly
    single-threaded and deterministic: entries run in (time, insertion
    order) order.
    """

    __slots__ = ("_now", "_sequence", "_queue", "_events_processed",
                 "_cancelled")

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._queue: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._events_processed = 0
        self._cancelled: set[int] = set()

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far (diagnostic)."""
        return self._events_processed

    # -- scheduling ---------------------------------------------------------

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> int:
        """Run ``callback(*args)`` after ``delay`` ms of simulated time.

        Returns a handle accepted by :meth:`cancel_scheduled`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ms in the past")
        handle = self._sequence
        heapq.heappush(self._queue,
                       (self._now + delay, handle, callback, args))
        self._sequence += 1
        return handle

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> int:
        """Run ``callback(*args)`` at absolute simulated time ``when``.

        Returns a handle accepted by :meth:`cancel_scheduled`.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} ms, already at {self._now} ms")
        handle = self._sequence
        heapq.heappush(self._queue, (when, handle, callback, args))
        self._sequence += 1
        return handle

    def cancel_scheduled(self, handle: int) -> None:
        """Cancel a pending :meth:`call_later`/:meth:`call_at` entry.

        The entry becomes invisible: it neither runs nor advances the
        clock, so a cancelled far-future timer does not stretch
        :meth:`run`'s end time. Cancelling an already-executed handle is
        the caller's bug (the handle may sit in the cancelled-set
        forever); callers like :class:`Timeout` guard with their own
        triggered state.
        """
        self._cancelled.add(handle)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at the current time, after pending
        same-time entries."""
        # Scheduling at `now` can never be in the past, so this skips
        # call_at's guard — it is the single hottest call in a simulation.
        heapq.heappush(self._queue, (self._now, self._sequence, callback, args))
        self._sequence += 1

    # -- coroutine layer ----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event bound to this loop."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` ms."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a generator as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: list[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: list[Event]) -> AnyOf:
        """Event that triggers when the first of ``events`` triggers."""
        return AnyOf(self, events)

    # -- running ------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulation time when the run stopped. ``max_events``
        guards against runaway simulations (a protocol bug that schedules
        forever); exceeding it raises :class:`SimulationError`.
        """
        queue = self._queue
        pop = heapq.heappop
        cancelled = self._cancelled
        processed = 0
        try:
            if until is None:
                # Fast path: no deadline check, pop-and-dispatch directly.
                while queue:
                    when, seq, callback, args = pop(queue)
                    if cancelled and seq in cancelled:
                        cancelled.discard(seq)
                        continue  # invisible: must not advance the clock
                    self._now = when
                    callback(*args)
                    processed += 1
                    if processed > max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; "
                            f"runaway simulation?")
                return self._now
            while queue:
                when, seq, callback, args = pop(queue)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue  # invisible: must not advance the clock
                if when > until:
                    # Past the deadline: put it back for the next run.
                    heapq.heappush(queue, (when, seq, callback, args))
                    self._now = until
                    return self._now
                self._now = when
                callback(*args)
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway simulation?")
            if until > self._now:
                self._now = until
            return self._now
        finally:
            self._events_processed += processed

    def run_process(self, generator: Generator[Event, Any, Any],
                    until: float | None = None) -> Any:
        """Start ``generator`` as a process, run the loop, return its value.

        Raises the process's exception if it failed, or
        :class:`SimulationError` if the loop drained before the process
        finished (usually a deadlock in the scenario).
        """
        process = self.process(generator)
        self.run(until=until)
        if not process.triggered:
            raise SimulationError(
                f"process {process.name!r} did not finish by "
                f"{'idle' if until is None else until}")
        if process.exception is not None:
            raise process.exception
        return process.value
