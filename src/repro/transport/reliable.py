"""Reliable, ordered message delivery over lossy datagrams.

The :class:`ReliableChannel` is the engine under both TCP and QUIC
streams. It is message-oriented: the caller hands it application messages
with explicit byte sizes; the channel splits them into MSS-sized
segments, applies a slow-start congestion window, retransmits on
duplicate-ACK and timeout, estimates RTT (Jacobson/Karels), and
reassembles in-order messages on the far side.

The channel is transport-agnostic: its owner supplies a ``transmit``
callable that puts a frame on the wire and feeds incoming frames to
:meth:`ReliableChannel.on_frame`. Frame objects carry explicit sizes so
link-level serialization delay, MTU and loss behave realistically.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.errors import ConnectionClosedError, TransportError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.events import Event, EventLoop

#: Default maximum segment payload size in bytes.
DEFAULT_MSS = 1200
#: Initial congestion window in segments (RFC 6928 spirit).
INITIAL_CWND = 10
#: Congestion window cap in segments.
MAX_CWND = 128
#: Bounds for the retransmission timeout (ms).
MIN_RTO_MS = 10.0
MAX_RTO_MS = 10_000.0
#: A segment retransmitted this many times breaks the channel (the peer
#: is considered dead), like TCP's R2 threshold.
MAX_SEGMENT_RETRIES = 12


class Segment(NamedTuple):
    """One wire segment of an application message (immutable).

    Only the final segment of a message carries the payload object (the
    earlier ones represent its leading bytes); ``message_end`` marks it.
    """

    seq: int
    chunk_size: int
    message_end: bool
    payload: Any = None


class AckFrame(NamedTuple):
    """Cumulative acknowledgement: all seqs below ``cumulative`` arrived."""

    cumulative: int


@dataclass(frozen=True)
class CloseFrame:
    """Graceful close: no more data will follow."""


#: Wire size charged for a pure ACK or CLOSE frame.
CONTROL_FRAME_BYTES = 16

#: ``AckFrame(...)`` / ``Segment(...)`` without the generated
#: ``__new__`` frame: one per segment received / cut.
_new_ack = _new_segment = tuple.__new__


@dataclass(slots=True)
class ChannelStats:
    """Counters for tests and benchmarks."""

    segments_sent: int = 0
    segments_received: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0


class ReliableChannel:
    """One direction-pair of reliable message delivery.

    Args:
        loop: the simulation event loop.
        transmit: ``transmit(frame, size_bytes)`` puts a frame on the wire.
        header_bytes: per-segment header overhead charged on the wire.
        mss: maximum segment payload size.
        initial_rtt_ms: seed for the RTO estimator (e.g. the handshake
            RTT measured by the owning connection).

    A channel holds only what it has in flight: unsent messages wait
    whole and are cut into segments as the window opens, and the
    reorder buffer exists only while a segment waits in it.
    """

    __slots__ = ("loop", "transmit", "header_bytes", "mss", "stats",
                 "_next_seq", "_pending", "_cut", "_unacked", "_una",
                 "_cwnd", "_dup_acks", "_srtt", "_rttvar", "_timer",
                 "_expected_seq", "_out_of_order", "_recv_queue",
                 "_recv_waiters", "closed", "remote_closed", "broken",
                 "_fp_active", "_fp_closing", "_fp_busy_until", "_fp_cwnd",
                 "_fp_tx_busy_until")

    def __init__(self, loop: "EventLoop",
                 transmit: Callable[[Any, int], None],
                 header_bytes: int = 32, mss: int = DEFAULT_MSS,
                 initial_rtt_ms: float = 50.0) -> None:
        self.loop = loop
        self.transmit = transmit
        self.header_bytes = header_bytes
        self.mss = mss
        self.stats = ChannelStats()
        # sender state: the seq of the next segment cut; messages not yet
        # fully cut, as ``(payload, size, segments)`` (None when there
        # are none) and how many segments of the first one went out.
        self._next_seq = 0
        self._pending: list[tuple[Any, int, int]] | None = None
        self._cut = 0
        #: Sent, unacknowledged segments: seq -> (segment, sent at,
        #: retransmissions). Segments go out in seq order, a
        #: retransmission keeps its place and only an acked prefix
        #: leaves, so the keys are the consecutive seqs from ``_una``
        #: (the oldest unacked seq, or ``_next_seq`` when empty).
        self._unacked: dict[int, tuple[Segment, float, int]] = {}
        self._una = 0
        self._cwnd = INITIAL_CWND
        self._dup_acks = 0
        # RTT estimation (Jacobson/Karels)
        self._srtt = initial_rtt_ms
        self._rttvar = initial_rtt_ms / 2
        #: Loop handle of the armed retransmission timer, or None.
        self._timer: int | None = None
        # receiver state: segments that arrived ahead of a gap, delivered
        # messages nobody asked for yet, and receivers waiting for one
        # (each None while empty).
        self._expected_seq = 0
        self._out_of_order: dict[int, Segment] | None = None
        self._recv_queue: list[Any] | None = None
        self._recv_waiters: list["Event"] | None = None
        # lifecycle
        self.closed = False          # we closed
        self.remote_closed = False   # peer closed
        self.broken = False          # gave up after MAX_SEGMENT_RETRIES
        # fast-path state (see repro.simnet.fastpath): analytic transfers
        # in flight, in channel order (a list while there are any); a
        # close deferred until the last of them lands; when the last one
        # delivers and the window it leaves behind; when this end's
        # access link is free again after the final ACK of a transfer it
        # received.
        self._fp_active: list | None = None
        self._fp_closing = False
        self._fp_busy_until = 0.0
        self._fp_cwnd = INITIAL_CWND
        self._fp_tx_busy_until = 0.0

    # -- sending ---------------------------------------------------------------

    def send_message(self, payload: Any, size: int) -> None:
        """Queue one application message of ``size`` bytes for delivery.

        The message is cut into ``ceil(size / mss)`` segments (one for
        an empty message), each ``mss`` bytes but the last, which carries
        the payload; they are cut as the congestion window admits them.
        """
        if self.closed:
            raise ConnectionClosedError("channel is closed")
        if size < 0:
            raise TransportError(f"negative message size {size}")
        self.stats.messages_sent += 1
        message = (payload, size, max(1, (size + self.mss - 1) // self.mss))
        if self._pending is None:
            self._pending = [message]
        else:
            self._pending.append(message)
        self._pump()

    def _pump(self) -> None:
        pending = self._pending
        unacked = self._unacked
        while pending and len(unacked) < self._cwnd:
            payload, size, segments = pending[0]
            index = self._cut
            seq = self._next_seq
            self._next_seq = seq + 1
            if index == segments - 1:
                del pending[0]
                self._cut = 0
                segment = _new_segment(Segment, (
                    seq, size - index * self.mss, True, payload))
            else:
                self._cut = index + 1
                segment = _new_segment(Segment, (seq, self.mss, False, None))
            self._transmit_segment(segment, retransmission=False)
        if pending is not None and not pending:
            self._pending = None
        if unacked and self._timer is None:
            self._arm_timer()

    def _transmit_segment(self, segment: Segment, retransmission: bool) -> None:
        self.stats.segments_sent += 1
        if retransmission:
            self.stats.retransmissions += 1
            _old, _time, retx = self._unacked[segment.seq]
            self._unacked[segment.seq] = (segment, self.loop._now, retx + 1)
        else:
            self._unacked[segment.seq] = (segment, self.loop._now, 0)
        self.transmit(segment, self.header_bytes + segment.chunk_size)

    # -- receiving ----------------------------------------------------------------

    def on_frame(self, frame: Any) -> None:
        """Feed one frame that arrived from the peer."""
        kind = type(frame)
        if kind is Segment:
            self._on_segment(frame)
        elif kind is AckFrame:
            self._on_ack(frame.cumulative)
        elif isinstance(frame, Segment):
            self._on_segment(frame)
        elif isinstance(frame, AckFrame):
            self._on_ack(frame.cumulative)
        elif isinstance(frame, CloseFrame):
            self._on_close()
        else:
            raise TransportError(f"unknown frame {frame!r}")

    def recv_message(self) -> "Event":
        """An event yielding the next complete in-order message.

        Fails with :class:`ConnectionClosedError` when the peer closed and
        no buffered messages remain.
        """
        event = self.loop.event()
        queue = self._recv_queue
        if queue:
            event.succeed(queue.pop(0))
            if not queue:
                self._recv_queue = None
        elif self.remote_closed:
            event.fail(ConnectionClosedError("peer closed the channel"))
        elif self._recv_waiters is None:
            self._recv_waiters = [event]
        else:
            self._recv_waiters.append(event)
        return event

    def _on_segment(self, segment: Segment) -> None:
        self.stats.segments_received += 1
        seq = segment.seq
        expected = self._expected_seq
        if seq == expected:
            expected += 1
            self._expected_seq = expected
            if segment.message_end:
                self._deliver(segment.payload)
            buffered = self._out_of_order
            if buffered is not None:
                # The gap closed: hand on what waited behind it.
                while expected in buffered:
                    ready = buffered.pop(expected)
                    expected += 1
                    self._expected_seq = expected
                    if ready.message_end:
                        self._deliver(ready.payload)
                if not buffered:
                    self._out_of_order = None
        elif seq > expected:
            if self._out_of_order is None:
                self._out_of_order = {seq: segment}
            else:
                self._out_of_order.setdefault(seq, segment)
        self.transmit(_new_ack(AckFrame, (self._expected_seq,)),
                      CONTROL_FRAME_BYTES)

    def _deliver(self, payload: Any) -> None:
        self.stats.messages_delivered += 1
        waiters = self._recv_waiters
        if waiters:
            waiter = waiters.pop(0)
            if not waiters:
                self._recv_waiters = None
            waiter.succeed(payload)
        elif self._recv_queue is None:
            self._recv_queue = [payload]
        else:
            self._recv_queue.append(payload)

    # -- acknowledgements -------------------------------------------------------------

    def _on_ack(self, cumulative: int) -> None:
        unacked = self._unacked
        if not unacked:
            return
        # The window is the consecutive seqs from ``_una`` (see
        # ``__init__``), so the newly acked segments are its first
        # ``cumulative - _una`` entries.
        una = self._una
        acked = min(cumulative - una, len(unacked))
        if acked > 0:
            newest = una + acked - 1
            for seq in range(una, newest):
                del unacked[seq]
            # Karn's rule: sample the RTT only off the newest newly-acked
            # segment, and only if it was never retransmitted.
            _segment, sent_time, retx = unacked.pop(newest)
            self._una = newest + 1
            if retx == 0:
                self._update_rtt(self.loop._now - sent_time)
            self._cwnd = min(MAX_CWND, self._cwnd + acked)
            self._dup_acks = 0
            if unacked:
                self._arm_timer()
            else:
                # A drained dict keeps the table it grew to.
                unacked.clear()
                self._cancel_timer()
            self._pump()
            return
        self._dup_acks += 1
        if self._dup_acks >= 3:
            self._dup_acks = 0
            self.stats.fast_retransmits += 1
            segment, _time, _retx = unacked[una]
            self._transmit_segment(segment, retransmission=True)
            self._arm_timer()

    def _update_rtt(self, sample_ms: float) -> None:
        delta = sample_ms - self._srtt
        self._srtt += 0.125 * delta
        self._rttvar += 0.25 * (abs(delta) - self._rttvar)

    @property
    def rto_ms(self) -> float:
        """Current retransmission timeout."""
        return min(MAX_RTO_MS, max(MIN_RTO_MS, self._srtt + 4 * self._rttvar))

    @property
    def srtt_ms(self) -> float:
        """Smoothed RTT estimate."""
        return self._srtt

    # -- retransmission timer -------------------------------------------------------

    def _arm_timer(self) -> None:
        """(Re)start the timer; a superseded one leaves the loop, so it
        cannot keep the clock running to its deadline."""
        if self._timer is not None:
            self.loop.cancel_scheduled(self._timer)
        self._timer = self.loop.call_later(self.rto_ms, self._on_timer)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.loop.cancel_scheduled(self._timer)
            self._timer = None

    def _on_timer(self) -> None:
        self._timer = None
        if not self._unacked:
            return
        segment, _time, retx = self._unacked[self._una]
        if retx >= MAX_SEGMENT_RETRIES:
            self._break()
            return
        self.stats.timeouts += 1
        # Back off: double the RTO by inflating the estimator's variance.
        self._rttvar *= 2
        self._cwnd = INITIAL_CWND
        self._transmit_segment(segment, retransmission=True)
        self._arm_timer()

    def _break(self) -> None:
        """Give up on the peer: stop retransmitting, fail receivers."""
        self.broken = True
        self.closed = True
        self._cancel_timer()
        self._unacked.clear()
        self._pending = None
        waiters, self._recv_waiters = self._recv_waiters, None
        for waiter in waiters or ():
            waiter.fail(ConnectionClosedError(
                f"peer unresponsive after {MAX_SEGMENT_RETRIES} retries"))

    # -- close ----------------------------------------------------------------------

    def close(self) -> None:
        """Signal end of data to the peer (best-effort, sent twice)."""
        if self.closed:
            return
        self.closed = True
        self.transmit(CloseFrame(), CONTROL_FRAME_BYTES)
        self.transmit(CloseFrame(), CONTROL_FRAME_BYTES)

    def _on_close(self) -> None:
        if self.remote_closed:
            return
        self.remote_closed = True
        waiters, self._recv_waiters = self._recv_waiters, None
        for waiter in waiters or ():
            waiter.fail(ConnectionClosedError("peer closed the channel"))
