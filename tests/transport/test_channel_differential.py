"""``ReliableChannel`` against the eager channel it replaced.

The channel now cuts a queued message into segments only as the window
opens, keeps its window in a plain dict with the oldest unacked seq
beside it, and buffers a segment only when it arrives out of order.
None of that may show on the wire. ``ReferenceChannel`` below is the
previous implementation (eager cut into a segment deque, an
``OrderedDict`` window, every segment through the reorder buffer),
without its fast-path fields, which a packet-level run never touches.

Hypothesis drives both on a bare :class:`EventLoop`: one to four
messages of 0 B to 300 kB over an MSS of 500 to 1,500 B, through a
seeded wire that loses, duplicates and reorders frames in both
directions. Every frame sent (seq, size, ``last`` flag, payload
identity), every ACK and close, every timer firing, the counters and
the delivered messages must match exactly.
"""

import random
from collections import OrderedDict, deque
from dataclasses import astuple, dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConnectionClosedError, TransportError
from repro.simnet.events import EventLoop
from repro.transport.reliable import (CONTROL_FRAME_BYTES, DEFAULT_MSS,
                                      INITIAL_CWND, MAX_CWND, MAX_RTO_MS,
                                      MAX_SEGMENT_RETRIES, MIN_RTO_MS,
                                      AckFrame, CloseFrame, ReliableChannel,
                                      Segment)


@dataclass
class ReferenceStats:
    segments_sent: int = 0
    segments_received: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0


class ReferenceChannel:
    """The eager channel, as it was before segments were cut lazily."""

    def __init__(self, loop, transmit, header_bytes=32, mss=DEFAULT_MSS,
                 initial_rtt_ms=50.0):
        self.loop = loop
        self.transmit = transmit
        self.header_bytes = header_bytes
        self.mss = mss
        self.stats = ReferenceStats()
        self._next_seq = 0
        self._pending = deque()
        self._unacked = OrderedDict()
        self._cwnd = INITIAL_CWND
        self._dup_acks = 0
        self._srtt = initial_rtt_ms
        self._rttvar = initial_rtt_ms / 2
        self._timer = None
        self._expected_seq = 0
        self._out_of_order = {}
        self._recv_queue = []
        self._recv_waiters = []
        self.closed = False
        self.remote_closed = False
        self.broken = False

    def send_message(self, payload, size):
        if self.closed:
            raise ConnectionClosedError("channel is closed")
        if size < 0:
            raise TransportError(f"negative message size {size}")
        self.stats.messages_sent += 1
        chunks = max(1, (size + self.mss - 1) // self.mss)
        remaining = size
        for index in range(chunks):
            chunk_size = min(self.mss, remaining) if chunks > 1 else size
            remaining -= chunk_size
            last = index == chunks - 1
            self._pending.append(Segment(
                self._next_seq, chunk_size, last, payload if last else None))
            self._next_seq += 1
        self._pump()

    def _pump(self):
        while self._pending and len(self._unacked) < self._cwnd:
            segment = self._pending.popleft()
            self._transmit_segment(segment, retransmission=False)
        if self._unacked and self._timer is None:
            self._arm_timer()

    def _transmit_segment(self, segment, retransmission):
        self.stats.segments_sent += 1
        if retransmission:
            self.stats.retransmissions += 1
            _old, _time, retx = self._unacked[segment.seq]
            self._unacked[segment.seq] = (segment, self.loop.now, retx + 1)
        else:
            self._unacked[segment.seq] = (segment, self.loop.now, 0)
        self.transmit(segment, self.header_bytes + segment.chunk_size)

    def on_frame(self, frame):
        if isinstance(frame, Segment):
            self._on_segment(frame)
        elif isinstance(frame, AckFrame):
            self._on_ack(frame.cumulative)
        elif isinstance(frame, CloseFrame):
            self._on_close()
        else:
            raise TransportError(f"unknown frame {frame!r}")

    def recv_message(self):
        event = self.loop.event()
        if self._recv_queue:
            event.succeed(self._recv_queue.pop(0))
        elif self.remote_closed:
            event.fail(ConnectionClosedError("peer closed the channel"))
        else:
            self._recv_waiters.append(event)
        return event

    def _on_segment(self, segment):
        self.stats.segments_received += 1
        if segment.seq >= self._expected_seq:
            self._out_of_order.setdefault(segment.seq, segment)
            while self._expected_seq in self._out_of_order:
                ready = self._out_of_order.pop(self._expected_seq)
                self._expected_seq += 1
                if ready.message_end:
                    self._deliver(ready.payload)
        self.transmit(AckFrame(self._expected_seq), CONTROL_FRAME_BYTES)

    def _deliver(self, payload):
        self.stats.messages_delivered += 1
        if self._recv_waiters:
            self._recv_waiters.pop(0).succeed(payload)
        else:
            self._recv_queue.append(payload)

    def _on_ack(self, cumulative):
        unacked = self._unacked
        acked = (min(cumulative - next(iter(unacked)), len(unacked))
                 if unacked else 0)
        if acked > 0:
            for _ in range(acked - 1):
                unacked.popitem(last=False)
            _seq, (_segment, sent_time, retx) = unacked.popitem(last=False)
            if retx == 0:
                self._update_rtt(self.loop.now - sent_time)
            self._cwnd = min(MAX_CWND, self._cwnd + acked)
            self._dup_acks = 0
            if unacked:
                self._arm_timer()
            else:
                self._cancel_timer()
            self._pump()
            return
        if unacked:
            self._dup_acks += 1
            if self._dup_acks >= 3:
                self._dup_acks = 0
                self.stats.fast_retransmits += 1
                oldest = next(iter(self._unacked))
                segment, _time, _retx = self._unacked[oldest]
                self._transmit_segment(segment, retransmission=True)
                self._arm_timer()

    def _update_rtt(self, sample_ms):
        delta = sample_ms - self._srtt
        self._srtt += 0.125 * delta
        self._rttvar += 0.25 * (abs(delta) - self._rttvar)

    @property
    def rto_ms(self):
        return min(MAX_RTO_MS, max(MIN_RTO_MS, self._srtt + 4 * self._rttvar))

    def _arm_timer(self):
        if self._timer is not None:
            self.loop.cancel_scheduled(self._timer)
        self._timer = self.loop.call_later(self.rto_ms, self._on_timer)

    def _cancel_timer(self):
        if self._timer is not None:
            self.loop.cancel_scheduled(self._timer)
            self._timer = None

    def _on_timer(self):
        self._timer = None
        if not self._unacked:
            return
        oldest = next(iter(self._unacked))
        segment, _time, retx = self._unacked[oldest]
        if retx >= MAX_SEGMENT_RETRIES:
            self._break()
            return
        self.stats.timeouts += 1
        self._rttvar *= 2
        self._cwnd = INITIAL_CWND
        self._transmit_segment(segment, retransmission=True)
        self._arm_timer()

    def _break(self):
        self.broken = True
        self.closed = True
        self._cancel_timer()
        self._unacked.clear()
        self._pending.clear()
        while self._recv_waiters:
            self._recv_waiters.pop(0).fail(ConnectionClosedError(
                f"peer unresponsive after {MAX_SEGMENT_RETRIES} retries"))

    def close(self):
        if self.closed:
            return
        self.closed = True
        self.transmit(CloseFrame(), CONTROL_FRAME_BYTES)
        self.transmit(CloseFrame(), CONTROL_FRAME_BYTES)

    def _on_close(self):
        if self.remote_closed:
            return
        self.remote_closed = True
        while self._recv_waiters:
            self._recv_waiters.pop(0).fail(
                ConnectionClosedError("peer closed the channel"))


def run(channel_class, sizes, gaps, mss, loss, dup, wire_seed):
    """Send ``sizes`` from one end to the other over a seeded lossy,
    duplicating, reordering wire; the log of everything observable."""
    loop = EventLoop()
    wire = random.Random(wire_seed)
    payloads = [object() for _ in sizes]
    log = []

    def describe(frame):
        if type(frame) is Segment:
            index = next((i for i, p in enumerate(payloads)
                          if p is frame.payload), None)
            return ("seg", frame.seq, frame.chunk_size, frame.message_end,
                    index)
        if type(frame) is AckFrame:
            return ("ack", frame.cumulative)
        return ("close",)

    def link(name, far_end):
        def transmit(frame, size):
            log.append((loop.now, name, describe(frame), size))
            if wire.random() < loss:
                return
            copies = 2 if wire.random() < dup else 1
            for _ in range(copies):
                loop.call_later(5.0 + 20.0 * wire.random(),
                                lambda: far_end[0].on_frame(frame))
        return transmit

    class Logged(channel_class):
        def _on_timer(self):
            log.append((loop.now, self.side, "timer"))
            super()._on_timer()

    to_receiver, to_sender = [None], [None]
    sender = Logged(loop, link("a", to_receiver), mss=mss,
                    initial_rtt_ms=30.0)
    receiver = Logged(loop, link("b", to_sender), mss=mss,
                      initial_rtt_ms=30.0)
    sender.side, receiver.side = "a", "b"
    to_receiver[0], to_sender[0] = receiver, sender

    def send():
        for payload, size, gap in zip(payloads, sizes, gaps):
            if gap:
                yield loop.timeout(gap)
            sender.send_message(payload, size)

    def receive():
        for _ in sizes:
            try:
                payload = yield receiver.recv_message()
            except ConnectionClosedError as error:
                log.append((loop.now, "recv-error", str(error)))
                return
            log.append((loop.now, "delivered",
                        next(i for i, p in enumerate(payloads)
                             if p is payload)))
        receiver.close()

    loop.process(send())
    loop.process(receive())
    loop.run(max_events=2_000_000)
    log.append(("stats", astuple(sender.stats), astuple(receiver.stats),
                sender.broken, sender.remote_closed))
    return log


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 300_000), min_size=1, max_size=4),
       gaps=st.lists(st.sampled_from([0.0, 0.0, 3.0, 40.0]),
                     min_size=4, max_size=4),
       mss=st.integers(500, 1500),
       loss=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
       dup=st.sampled_from([0.0, 0.05, 0.2]),
       wire_seed=st.integers(0, 2**32))
def test_the_wire_sees_what_the_eager_channel_sent(sizes, gaps, mss, loss,
                                                   dup, wire_seed):
    args = (sizes, gaps, mss, loss, dup, wire_seed)
    assert run(ReliableChannel, *args) == run(ReferenceChannel, *args)


def test_a_dead_wire_breaks_both_alike():
    """All frames lost: both give up after the same retries."""
    args = ([5_000, 0], [0.0, 0.0, 0.0, 0.0], 1200, 1.0, 0.0, 7)
    log = run(ReliableChannel, *args)
    assert log == run(ReferenceChannel, *args)
    assert log[-1][3] is True  # sender.broken
