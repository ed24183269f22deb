"""The reliability engine: ordering, retransmission, flow behaviour.

The channel pair here is wired through a configurable lossy/delayed
"wire" driven by the simulation loop, so loss recovery and RTO behaviour
are tested without the full network stack.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConnectionClosedError, TransportError
from repro.simnet.events import EventLoop
from repro.transport.reliable import (INITIAL_CWND, MAX_CWND, AckFrame,
                                      ReliableChannel, Segment)


class Wire:
    """A lossy, delayed, possibly reordering bidirectional wire."""

    def __init__(self, loop, latency_ms=5.0, loss_rate=0.0, seed=0):
        self.loop = loop
        self.latency_ms = latency_ms
        self.loss_rate = loss_rate
        self.rng = random.Random(seed)
        self.a = ReliableChannel(loop, transmit=self._send_to_b,
                                 initial_rtt_ms=2 * latency_ms)
        self.b = ReliableChannel(loop, transmit=self._send_to_a,
                                 initial_rtt_ms=2 * latency_ms)
        self.frames_crossed = 0

    def _send_to_b(self, frame, size):
        self._relay(self.b, frame)

    def _send_to_a(self, frame, size):
        self._relay(self.a, frame)

    def _relay(self, target, frame):
        if self.loss_rate and self.rng.random() < self.loss_rate:
            return
        self.frames_crossed += 1
        self.loop.call_later(self.latency_ms, target.on_frame, frame)


def transfer(loop, wire, messages):
    """Send messages a->b; collect what b delivers."""
    received = []

    def receiver():
        for _ in range(len(messages)):
            message = yield wire.b.recv_message()
            received.append(message)

    process = loop.process(receiver())
    for payload, size in messages:
        wire.a.send_message(payload, size)
    loop.run()
    assert process.ok, process.exception
    return received


class TestDelivery:
    def test_single_small_message(self):
        loop = EventLoop()
        wire = Wire(loop)
        assert transfer(loop, wire, [("hello", 100)]) == ["hello"]

    def test_large_message_segmented(self):
        loop = EventLoop()
        wire = Wire(loop)
        assert transfer(loop, wire, [("big", 50_000)]) == ["big"]
        assert wire.a.stats.segments_sent >= 40

    def test_in_order_delivery(self):
        loop = EventLoop()
        wire = Wire(loop)
        messages = [(f"m{i}", 2_000) for i in range(20)]
        assert transfer(loop, wire, messages) == [f"m{i}" for i in range(20)]

    def test_zero_size_message(self):
        loop = EventLoop()
        wire = Wire(loop)
        assert transfer(loop, wire, [("empty", 0)]) == ["empty"]

    def test_negative_size_rejected(self):
        loop = EventLoop()
        wire = Wire(loop)
        with pytest.raises(TransportError):
            wire.a.send_message("x", -1)

    def test_bidirectional(self):
        loop = EventLoop()
        wire = Wire(loop)
        results = []

        def side(channel, label):
            message = yield channel.recv_message()
            results.append((label, message))

        loop.process(side(wire.a, "a"))
        loop.process(side(wire.b, "b"))
        wire.a.send_message("to-b", 500)
        wire.b.send_message("to-a", 500)
        loop.run()
        assert sorted(results) == [("a", "to-a"), ("b", "to-b")]


class TestLossRecovery:
    @pytest.mark.parametrize("loss", [0.05, 0.2])
    def test_delivery_despite_loss(self, loss):
        loop = EventLoop()
        wire = Wire(loop, loss_rate=loss, seed=3)
        messages = [(f"m{i}", 5_000) for i in range(10)]
        assert transfer(loop, wire, messages) == [f"m{i}" for i in range(10)]
        assert wire.a.stats.retransmissions > 0

    def test_rto_fires_when_all_acks_lost(self):
        loop = EventLoop()
        wire = Wire(loop, loss_rate=0.6, seed=7)
        assert transfer(loop, wire, [("stubborn", 1_000)]) == ["stubborn"]
        assert wire.a.stats.timeouts > 0

    def test_no_retransmissions_on_clean_wire(self):
        loop = EventLoop()
        wire = Wire(loop)
        transfer(loop, wire, [(f"m{i}", 3_000) for i in range(5)])
        assert wire.a.stats.retransmissions == 0

    @settings(max_examples=15, deadline=None)
    @given(loss=st.floats(min_value=0.0, max_value=0.35),
           sizes=st.lists(st.integers(min_value=0, max_value=30_000),
                          min_size=1, max_size=8),
           seed=st.integers(min_value=0, max_value=1000))
    def test_exactly_once_in_order_property(self, loss, sizes, seed):
        loop = EventLoop()
        wire = Wire(loop, loss_rate=loss, seed=seed)
        messages = [(index, size) for index, size in enumerate(sizes)]
        received = transfer(loop, wire, messages)
        assert received == list(range(len(sizes)))


class TestCongestionAndRtt:
    def test_cwnd_limits_burst(self):
        loop = EventLoop()
        sent_before_any_ack = []
        channel = ReliableChannel(
            loop, transmit=lambda frame, size: sent_before_any_ack.append(frame))
        channel.send_message("burst", 100_000)  # ~84 segments
        # Before the loop runs any timer, only one cwnd of segments went out.
        assert len(sent_before_any_ack) == INITIAL_CWND

    def test_unresponsive_peer_breaks_channel(self):
        loop = EventLoop()
        channel = ReliableChannel(loop, transmit=lambda f, s: None,
                                  initial_rtt_ms=1.0)
        channel.send_message("void", 100)

        def receiver():
            with pytest.raises(ConnectionClosedError, match="unresponsive"):
                yield channel.recv_message()
            return True

        process = loop.process(receiver())
        loop.run()
        assert channel.broken
        assert process.value is True

    def test_rtt_estimate_tracks_wire(self):
        loop = EventLoop()
        wire = Wire(loop, latency_ms=20.0)
        transfer(loop, wire, [(f"m{i}", 10_000) for i in range(5)])
        assert wire.a.srtt_ms == pytest.approx(40.0, rel=0.3)

    def test_rto_bounded_below(self):
        loop = EventLoop()
        channel = ReliableChannel(loop, transmit=lambda f, s: None,
                                  initial_rtt_ms=0.01)
        assert channel.rto_ms >= 10.0


class TestClose:
    def test_close_wakes_pending_receiver(self):
        loop = EventLoop()
        wire = Wire(loop)

        def receiver():
            with pytest.raises(ConnectionClosedError):
                yield wire.b.recv_message()
            return "closed"

        process = loop.process(receiver())
        wire.a.close()
        loop.run()
        assert process.value == "closed"

    def test_send_after_close_rejected(self):
        loop = EventLoop()
        wire = Wire(loop)
        wire.a.close()
        with pytest.raises(ConnectionClosedError):
            wire.a.send_message("late", 10)

    def test_recv_after_remote_close_with_empty_queue(self):
        loop = EventLoop()
        wire = Wire(loop)
        wire.a.close()
        loop.run()

        def receiver():
            with pytest.raises(ConnectionClosedError):
                yield wire.b.recv_message()
            return True

        assert loop.run_process(receiver())

    def test_buffered_data_still_readable_after_close(self):
        loop = EventLoop()
        wire = Wire(loop)
        wire.a.send_message("last-words", 100)
        loop.run()
        wire.a.close()
        loop.run()

        def receiver():
            message = yield wire.b.recv_message()
            return message

        assert loop.run_process(receiver()) == "last-words"

    def test_double_close_is_noop(self):
        loop = EventLoop()
        wire = Wire(loop)
        wire.a.close()
        wire.a.close()


class TestAckedPrefix:
    """``_on_ack`` pops the acked prefix of the window.

    The window below has its middle segment (seq 2) retransmitted; the
    ACKs walk the prefix across it. Karn's rule samples the RTT only off
    the newest newly-acked segment, and only if that one was never
    retransmitted.
    """

    @staticmethod
    def window():
        """Five segments sent at t=0, seq 2 resent at t=3."""
        loop = EventLoop()
        sent = []
        channel = ReliableChannel(
            loop, transmit=lambda frame, size: sent.append(frame),
            initial_rtt_ms=10.0)
        channel.send_message("m", 5 * channel.mss)
        loop._now = 3.0
        channel._transmit_segment(channel._unacked[2][0],
                                  retransmission=True)
        return loop, channel, sent

    def test_prefix_ending_on_the_retransmitted_segment_takes_no_sample(self):
        loop, channel, _sent = self.window()
        loop._now = 8.0
        channel.on_frame(AckFrame(3))
        assert list(channel._unacked) == [3, 4]
        assert (channel.srtt_ms, channel._rttvar) == (10.0, 5.0)
        assert channel._cwnd == INITIAL_CWND + 3
        assert channel._timer is not None

    def test_prefix_past_the_retransmitted_segment_samples_the_newest(self):
        loop, channel, _sent = self.window()
        loop._now = 8.0
        channel.on_frame(AckFrame(4))  # newest acked: seq 3, sent at 0
        assert list(channel._unacked) == [4]
        assert channel.srtt_ms == 10.0 + 0.125 * (8.0 - 10.0)
        assert channel._cwnd == INITIAL_CWND + 4

    def test_whole_window_acked_cancels_the_timer(self):
        loop, channel, _sent = self.window()
        loop._now = 8.0
        channel.on_frame(AckFrame(5))
        assert not channel._unacked
        assert channel._timer is None
        assert channel._cwnd == INITIAL_CWND + 5

    def test_cwnd_growth_is_capped(self):
        _loop, channel, _sent = self.window()
        channel._cwnd = MAX_CWND - 1
        channel.on_frame(AckFrame(5))
        assert channel._cwnd == MAX_CWND

    def test_stale_and_duplicate_acks_take_the_dup_ack_path(self):
        loop, channel, sent = self.window()
        loop._now = 8.0
        channel.on_frame(AckFrame(2))
        resent = len(sent)
        for _ in range(2):
            channel.on_frame(AckFrame(2))
        channel.on_frame(AckFrame(1))  # stale: below the window
        assert channel._dup_acks == 0
        assert channel.stats.fast_retransmits == 1
        assert sent[resent:] == [channel._unacked[2][0]]
        assert channel._unacked[2][2] == 2  # its second retransmission
        assert list(channel._unacked) == [2, 3, 4]

    def test_matches_the_window_scan(self):
        """Against the scan it replaced, ACK by ACK: the same window,
        RTT estimate, cwnd, dup-ACK count and frames on the wire."""

        def scan(channel, cumulative):
            newly_acked = [seq for seq in channel._unacked
                           if seq < cumulative]
            if newly_acked:
                _segment, sent_time, retx = channel._unacked[newly_acked[-1]]
                if retx == 0:
                    channel._update_rtt(channel.loop.now - sent_time)
                for seq in newly_acked:
                    del channel._unacked[seq]
                channel._cwnd = min(MAX_CWND,
                                    channel._cwnd + len(newly_acked))
                channel._dup_acks = 0
                if channel._unacked:
                    channel._arm_timer()
                else:
                    channel._cancel_timer()
                channel._pump()
                return
            if channel._unacked:
                channel._dup_acks += 1
                if channel._dup_acks >= 3:
                    channel._dup_acks = 0
                    channel.stats.fast_retransmits += 1
                    oldest = next(iter(channel._unacked))
                    segment, _time, _retx = channel._unacked[oldest]
                    channel._transmit_segment(segment, retransmission=True)
                    channel._arm_timer()

        def state(channel, sent):
            return (dict(channel._unacked), channel._srtt, channel._rttvar,
                    channel._cwnd, channel._dup_acks,
                    channel._timer is not None, list(sent))

        acks = [0, 2, 2, 2, 2, 1, 3, 3, 4, 9, 9, 12, 40, 40]
        (ref_loop, reference, ref_sent), (loop, channel, sent) = \
            self.window(), self.window()
        reference.send_message("more", 30 * reference.mss)
        channel.send_message("more", 30 * channel.mss)
        for step, cumulative in enumerate(acks):
            ref_loop._now = loop._now = 4.0 + step
            scan(reference, cumulative)
            channel._on_ack(cumulative)
            assert state(channel, sent) == state(reference, ref_sent)
        assert all(isinstance(frame, Segment) for frame in sent)

