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

from collections import OrderedDict, deque
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

#: ``AckFrame(...)`` without the generated ``__new__`` frame: one per
#: segment received.
_new_ack = tuple.__new__


@dataclass
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
    """

    def __init__(self, loop: "EventLoop",
                 transmit: Callable[[Any, int], None],
                 header_bytes: int = 32, mss: int = DEFAULT_MSS,
                 initial_rtt_ms: float = 50.0) -> None:
        self.loop = loop
        self.transmit = transmit
        self.header_bytes = header_bytes
        self.mss = mss
        self.stats = ChannelStats()
        # sender state
        self._next_seq = 0
        self._pending: deque[Segment] = deque()
        self._unacked: "OrderedDict[int, tuple[Segment, float, int]]" = OrderedDict()
        self._cwnd = INITIAL_CWND
        self._dup_acks = 0
        # RTT estimation (Jacobson/Karels)
        self._srtt = initial_rtt_ms
        self._rttvar = initial_rtt_ms / 2
        #: Loop handle of the armed retransmission timer, or None.
        self._timer: int | None = None
        # receiver state
        self._expected_seq = 0
        self._out_of_order: dict[int, Segment] = {}
        self._recv_queue: list[Any] = []
        self._recv_waiters: list["Event"] = []
        # lifecycle
        self.closed = False          # we closed
        self.remote_closed = False   # peer closed
        self.broken = False          # gave up after MAX_SEGMENT_RETRIES
        # fast-path state (see repro.simnet.fastpath): analytic transfers
        # in flight, in channel order (a list from the first one on); a
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
        """Queue one application message of ``size`` bytes for delivery."""
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

    def _pump(self) -> None:
        while self._pending and len(self._unacked) < self._cwnd:
            segment = self._pending.popleft()
            self._transmit_segment(segment, retransmission=False)
        if self._unacked and self._timer is None:
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
        if self._recv_queue:
            event.succeed(self._recv_queue.pop(0))
        elif self.remote_closed:
            event.fail(ConnectionClosedError("peer closed the channel"))
        else:
            self._recv_waiters.append(event)
        return event

    def _on_segment(self, segment: Segment) -> None:
        self.stats.segments_received += 1
        if segment.seq >= self._expected_seq:
            self._out_of_order.setdefault(segment.seq, segment)
            while self._expected_seq in self._out_of_order:
                ready = self._out_of_order.pop(self._expected_seq)
                self._expected_seq += 1
                if ready.message_end:
                    self._deliver(ready.payload)
        self.transmit(_new_ack(AckFrame, (self._expected_seq,)),
                      CONTROL_FRAME_BYTES)

    def _deliver(self, payload: Any) -> None:
        self.stats.messages_delivered += 1
        if self._recv_waiters:
            self._recv_waiters.pop(0).succeed(payload)
        else:
            self._recv_queue.append(payload)

    # -- acknowledgements -------------------------------------------------------------

    def _on_ack(self, cumulative: int) -> None:
        unacked = self._unacked
        # ``_unacked`` holds consecutive seqs in order (segments go out in
        # seq order, a retransmission keeps its place and only an acked
        # prefix leaves), so the newly acked segments are its first
        # ``cumulative - oldest`` entries.
        acked = (min(cumulative - next(iter(unacked)), len(unacked))
                 if unacked else 0)
        if acked > 0:
            popitem = unacked.popitem
            for _ in range(acked - 1):
                popitem(last=False)
            # Karn's rule: sample the RTT only off the newest newly-acked
            # segment, and only if it was never retransmitted.
            _seq, (_segment, sent_time, retx) = popitem(last=False)
            if retx == 0:
                self._update_rtt(self.loop._now - sent_time)
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
        oldest = next(iter(self._unacked))
        segment, _time, retx = self._unacked[oldest]
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
        self._pending.clear()
        while self._recv_waiters:
            self._recv_waiters.pop(0).fail(ConnectionClosedError(
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
        while self._recv_waiters:
            self._recv_waiters.pop(0).fail(
                ConnectionClosedError("peer closed the channel"))
