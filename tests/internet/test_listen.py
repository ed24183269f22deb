"""A push-mode socket reader handles what a ``recv`` loop did, one event
cheaper per datagram.

``UdpSocket.listen`` replaced four generator processes that looped on
``yield socket.recv()``; it now calls its handler inside the event that
delivers the datagram. Each case below runs the same deliveries and
closes against both readers — the reference generator is kept here —
and requires the same datagrams handled in the same order at the same
times, the same work scheduled by the handler, the same clock, and one
loop event fewer per handled datagram (and none for a close that stops
an idle reader, which cost the generator its last step). Only the order
of same-instant work moves: a handler's echo no longer runs before the
next datagram of the same burst is handled.
"""

from collections import Counter

import pytest

from repro.errors import SimulationError, TransportError
from repro.internet.host import Datagram, Host
from repro.scion.addr import HostAddr, IsdAs
from repro.simnet.events import EventLoop

ADDR = HostAddr(IsdAs(1, 1), "h")


def reference_listen(socket, handler):
    """The generator reader ``listen`` replaced."""

    def reader():
        while True:
            try:
                datagram = yield socket.recv()
            except TransportError:
                return
            handler(datagram)

    return socket.host.loop.process(reader())


def bound_socket():
    loop = EventLoop()
    host = Host("h", ADDR)
    host.bind_loop(loop)
    return host.udp_socket(7)


def datagram(payload):
    return Datagram(ADDR, 1, ADDR, 7, payload, 10, "ip")


def run(reader, scenario):
    """Run ``scenario(loop, socket, deliver)`` under one reader kind."""
    socket = bound_socket()
    loop = socket.host.loop
    log = []

    def handler(received):
        log.append((loop.now, "handle", received.payload))
        if received.payload == "boom":
            raise ValueError("boom")
        loop.call_soon(log.append, (loop.now, "echo", received.payload))

    def deliver(*payloads):
        for payload in payloads:
            socket.deliver(datagram(payload))

    def start():
        if reader == "listen":
            socket.listen(handler)
            return None
        return reference_listen(socket, handler)

    process = scenario(loop, socket, deliver, start)
    loop.run()
    error = socket.reader_error if reader == "listen" else (
        process.exception if process is not None else None)
    return {"log": log, "events": loop.events_processed, "now": loop.now,
            "error": repr(error), "socket": socket}


def handled(result):
    return [(now, payload) for now, kind, payload in result["log"]
            if kind == "handle"]


def compare(scenario, closes_idle=False):
    listened = run("listen", scenario)
    reference = run("reference", scenario)
    assert handled(listened) == handled(reference)
    assert Counter(listened["log"]) == Counter(reference["log"])
    for key in ("now", "error"):
        assert listened[key] == reference[key], key
    saved = len(handled(reference)) + closes_idle
    assert listened["events"] == reference["events"] - saved
    return listened


def test_datagrams_queued_before_the_first_step():
    def scenario(loop, socket, deliver, start):
        deliver("a", "b")
        process = start()
        deliver("c")
        loop.call_later(1.0, deliver, "d")
        return process

    result = compare(scenario)
    assert [entry[2] for entry in result["log"] if entry[1] == "handle"] \
        == ["a", "b", "c", "d"]


def test_same_instant_bursts():
    def scenario(loop, socket, deliver, start):
        process = start()
        loop.call_later(2.0, deliver, "a", "b", "c")
        loop.call_later(2.0, deliver, "d")
        loop.call_later(3.5, deliver, "e")
        loop.call_later(3.5, deliver, "f", "g")
        return process

    result = compare(scenario)
    assert len(result["log"]) == 14
    # Each burst is handled within its delivery event, so both bursts
    # of an instant are handled before the first echo runs.
    assert [entry[1] for entry in result["log"][:5]] == ["handle"] * 4 + [
        "echo"]


def test_close_while_idle_takes_one_last_step():
    def scenario(loop, socket, deliver, start):
        process = start()
        loop.call_later(1.0, deliver, "a")
        loop.call_later(2.0, socket.close)
        loop.call_later(3.0, deliver, "late")
        return process

    result = compare(scenario, closes_idle=True)
    assert [entry[2] for entry in result["log"]] == ["a", "a"]
    # The first step; the delivery of "a", which handles it, and its
    # echo; the close; the ignored late delivery.
    assert result["events"] == 5
    assert result["now"] == 3.0


def test_close_with_a_step_pending_still_drains_the_queue():
    def scenario(loop, socket, deliver, start):
        process = start()

        def burst_then_close():
            deliver("a", "b", "c")
            socket.close()
            deliver("late")

        loop.call_later(1.0, burst_then_close)
        return process

    # The reference generator drains the queue, then its recv on the
    # closed socket fails and it takes one last step to return, as it
    # does when a close finds it idle.
    result = compare(scenario, closes_idle=True)
    handled = [entry[2] for entry in result["log"] if entry[1] == "handle"]
    assert handled == ["a", "b", "c"]


def test_close_keeps_queued_datagrams_for_a_later_recv():
    socket = bound_socket()
    socket.deliver(datagram("a"))
    socket.close()
    socket.deliver(datagram("late"))
    assert socket.recv().value.payload == "a"
    after = socket.recv()
    assert isinstance(after.exception, TransportError)
    assert not socket._waiters


def test_recv_on_a_closed_socket_fails_instead_of_parking():
    socket = bound_socket()
    loop = socket.host.loop
    socket.close()
    event = socket.recv(timeout_ms=5.0)
    loop.run()
    assert event.triggered
    assert isinstance(event.exception, TransportError)
    assert not socket._waiters and not socket._deadlines
    assert loop.now == 0.0  # no deadline was armed


def test_a_raising_handler_stops_the_reader_and_keeps_its_error():
    def scenario(loop, socket, deliver, start):
        process = start()
        loop.call_later(1.0, deliver, "a")
        loop.call_later(2.0, deliver, "boom", "c")
        loop.call_later(3.0, deliver, "d")
        return process

    result = compare(scenario)
    assert [entry[2] for entry in result["log"]] == ["a", "a", "boom"]
    assert result["error"] == repr(ValueError("boom"))
    socket = result["socket"]
    # The reader is gone: later datagrams wait for whoever reads next.
    assert [socket.recv().value.payload for _ in range(2)] == ["c", "d"]


def test_one_consumer_at_a_time():
    socket = bound_socket()
    socket.listen(lambda received: None)
    with pytest.raises(SimulationError, match="listening reader"):
        socket.recv()
    with pytest.raises(SimulationError, match="already has a reader"):
        socket.listen(lambda received: None)
