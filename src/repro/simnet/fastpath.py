"""Hybrid-fidelity fast path: analytic completion for clean transfers.

The per-packet event loop is the repository's fidelity oracle, but it
tops out around a million coroutine events per second — far short of the
ROADMAP's population-scale ambitions. This module adds the flow-level
fast path the ROADMAP names: when a reliable-transport message (QUIC
stream or TCP connection data) would traverse a route whose links are
all up, loss-free (``loss_rate + extra_loss_rate == 0``), spike-free and
uncontended, its completion time is computed *analytically* — the same
slow-start round arithmetic, per-hop serialization (``size/bandwidth``),
propagation and router-crossing delays ``Link.transmit`` and
:class:`~repro.internet.router.AsRouter` would produce packet by packet
— and the payload is delivered to the far channel in a single scheduled
event.

Eligibility is O(1) amortized and **revoked live**: every
:class:`~repro.simnet.link.Link` fault-hook transition (``up``,
``extra_loss_rate``, ``extra_latency_ms``, ``extra_jitter_ms``) bumps a
global epoch — invalidating all cached route validations — and demotes
any in-flight fast-path transfer crossing that link back to packet-level
mid-stream, resending the not-yet-"arrived" remainder through the
ordinary :class:`~repro.transport.reliable.ReliableChannel`. A second
concurrent fast-path flow on a shared finite-bandwidth link demotes the
same way (infinite-bandwidth links serialize nothing, so flows on them
provably do not interact). Arming a
:class:`~repro.simnet.faults.FaultInjector` disables the fast path for
the whole world up front, which keeps fault/chaos/resilience batteries
bit-identical to pure packet-level mode.

Approximation contract (documented bound, asserted by the A/B harness
in :mod:`repro.experiments.fastpath_ab`): on fault-free figure
conditions the fast path reproduces PLT medians within
:data:`PLT_ERROR_BOUND` (1 %) of the packet-level oracle. Static link
jitter enters the analytic schedule at its expected value — the fast
path never draws from the world RNG, so paired experiment conditions
stay noise-correlated and other seeded consumers see an unperturbed
stream. ``REPRO_FASTPATH=0`` (or ``Internet(fastpath=False)``) removes
the fast path entirely and is bit-identical to pre-fast-path behavior.
"""

from __future__ import annotations

import heapq
import random
from collections import OrderedDict
from typing import Any

from repro.errors import ConnectionClosedError
from repro.obs.spans import NULL_TRACER
from repro.transport.reliable import CONTROL_FRAME_BYTES, MAX_CWND

#: Environment knob: set to 0/false/no to force pure packet-level mode.
FASTPATH_ENV = "REPRO_FASTPATH"

#: Documented per-figure PLT approximation bound on fault-free
#: conditions (fraction of the packet-level oracle's median).
PLT_ERROR_BOUND = 0.01

#: Mirrors :data:`repro.internet.router.PROCESSING_DELAY_MS` (imported
#: lazily in :func:`_walk_route` to keep simnet importable standalone).
_SCION_LOCAL_HEADER_BYTES = 24


def fastpath_enabled(override: bool | None = None) -> bool:
    """Resolve the fast-path knob: explicit override wins, then the
    ``REPRO_FASTPATH`` environment variable (default on)."""
    from repro.internet.knobs import resolve_knob

    return resolve_knob(FASTPATH_ENV, override)


class RouteLeg:
    """One direction of a resolved transfer route.

    Static facts gathered once per connection by walking the node graph
    exactly the way the routers forward (host → border router → … →
    host), plus an epoch stamp so the per-send dynamic check — are all
    links still clean? — is a single integer comparison while no link in
    the world has changed.
    """

    __slots__ = ("links", "base_delay_ms", "jitter_bounds", "jitter_mean",
                 "finite", "finite_meta", "inv_rate", "bottleneck_inv",
                 "first_inv", "min_mtu", "expiry_ms", "static_clean",
                 "_epoch")

    def __init__(self, links: list[tuple[Any, str]], base_delay_ms: float,
                 expiry_ms: float,
                 entry_delays: list[float] | None = None) -> None:
        self.links = tuple(links)
        self.base_delay_ms = base_delay_ms
        self.expiry_ms = expiry_ms
        # Static jitter enters the analytic schedule at its expected
        # value. Deterministic on purpose: paired A/B conditions stay
        # noise-correlated, and the fast path never perturbs the
        # world's seeded RNG stream.
        self.jitter_bounds = tuple(
            link.config.jitter_ms for link, _sender in self.links
            if link.config.jitter_ms > 0.0)
        self.jitter_mean = sum(self.jitter_bounds) * 0.5
        self.finite = tuple(
            (link, sender) for link, sender in self.links
            if link.config.bandwidth_mbps > 0.0)
        # ms-per-byte factors: serialization of B bytes over the whole
        # leg is B * inv_rate; the slowest hop clocks out a burst at
        # B * bottleneck_inv per segment.
        rates = [1.0 / (link.config.bandwidth_mbps * 125.0)
                 for link, _sender in self.finite]
        self.inv_rate = sum(rates)
        self.bottleneck_inv = max(rates, default=0.0)
        # Serialization rate of the leg's first *finite* hop: what a
        # cumulative ACK occupies ahead of a follow-up send (downstream
        # hops re-absorb the gap, so only the first one persists).
        self.first_inv = rates[0] if rates else 0.0
        # Per finite hop: (link, sender, fixed delay before entering the
        # hop, Σ inv up to and including it, max inv up to and including
        # it, own inv) — enough to place each analytic burst's
        # serialization window on each hop so real cross traffic
        # (handshakes, competing flows) queues behind it exactly as it
        # would behind the oracle's packets.
        if entry_delays is None:
            entry_delays = [0.0] * len(self.links)
        meta = []
        inv_sum = 0.0
        inv_max = 0.0
        for (link, sender), entry in zip(self.links, entry_delays):
            bandwidth = link.config.bandwidth_mbps
            if bandwidth > 0.0:
                inv = 1.0 / (bandwidth * 125.0)
                inv_sum += inv
                inv_max = max(inv_max, inv)
                meta.append((link, sender, entry, inv_sum, inv_max, inv))
        self.finite_meta = tuple(meta)
        self.min_mtu = min((link.config.mtu for link, _s in self.links),
                           default=0)
        self.static_clean = all(
            link.config.loss_rate == 0.0 for link, _s in self.links)
        self._epoch = -1

    def clean(self, epoch: int) -> bool:
        """True when every link is up with no active fault hooks.

        Validation is cached against the world epoch: any link state
        change anywhere bumps the epoch, so an unchanged epoch means an
        earlier positive answer still holds (the O(1) fast case).
        """
        if not self.static_clean:
            return False
        if self._epoch == epoch:
            return True
        for link, _sender in self.links:
            if (not link._up or link._extra_loss_rate != 0.0
                    or link._extra_latency_ms != 0.0
                    or link._extra_jitter_ms != 0.0):
                return False
        self._epoch = epoch
        return True


#: Sentinel for "resolution attempted, no analytic route exists".
_UNROUTABLE = object()

#: Bound on each jitter-model cache below. A long battery over fresh
#: seeds keeps minting keys (every distinct RTT is one), so the caches
#: evict least-recently-used entries instead of growing for the life of
#: the process. Both functions are pure (neither reads the world's RNG
#: or clock), so an evicted key is recomputed to the same value.
MAX_CACHED_JITTER_VALUES = 4096


def _remember(cache: OrderedDict[tuple, float], key: tuple,
              value: float) -> float:
    cache[key] = value
    while len(cache) > MAX_CACHED_JITTER_VALUES:
        cache.popitem(last=False)
    return value


_MAX_JITTER_CACHE: OrderedDict[tuple, float] = OrderedDict()


def expected_max_jitter(bounds: tuple, window: int) -> float:
    """``E[max of window iid sums of U(0, b_j)]`` for ``b_j`` in ``bounds``.

    A window of segments sent concurrently over jittery links is
    delivered in order, so the message completes at the *slowest*
    arrival. The per-segment jitter sum follows the generalized
    Irwin-Hall distribution; its exact CDF is integrated numerically
    (``E[max] = total - ∫ F(x)^w dx``). Deterministic, cached per
    (bounds, window) — no RNG involved.
    """
    if not bounds or window <= 0:
        return 0.0
    if window == 1:
        return sum(bounds) * 0.5
    key = (bounds, window)
    cached = _MAX_JITTER_CACHE.get(key)
    if cached is not None:
        _MAX_JITTER_CACHE.move_to_end(key)
        return cached
    total = sum(bounds)
    k = len(bounds)
    norm = 1.0
    for bound in bounds:
        norm *= bound
    for i in range(2, k + 1):
        norm *= i
    # Inclusion-exclusion terms of the Irwin-Hall CDF:
    # F(x) = Σ_A (-1)^|A| (x - Σ_{j∈A} b_j)_+^k / (k! ∏ b_j)
    subsets = []
    for mask in range(1 << k):
        offset = 0.0
        sign = 1.0
        for j in range(k):
            if mask >> j & 1:
                offset += bounds[j]
                sign = -sign
        subsets.append((sign, offset))

    cells = 512
    dx = total / cells
    integral = 0.5  # the x = total endpoint, where F^w = 1
    for i in range(1, cells):
        x = i * dx
        acc = 0.0
        for sign, offset in subsets:
            d = x - offset
            if d > 0.0:
                acc += sign * d ** k
        integral += (acc / norm) ** window
    return _remember(_MAX_JITTER_CACHE, key, total - integral * dx)


_ROUND_JITTER_CACHE: OrderedDict[tuple, float] = OrderedDict()
_ROUND_JITTER_SAMPLES = 256
#: Transfers beyond this many segments use the cheap mean-based jitter
#: model — at that scale serialization dwarfs any order-statistic bias.
_ROUND_JITTER_MAX_SEGMENTS = 512


def expected_round_jitter(fwd_bounds: tuple, rev_bounds: tuple,
                          rtt_ms: float, cwnd0: int, n: int,
                          rounds: int) -> float:
    """Expected jitter penalty of a multi-round slow-start transfer.

    Round advances gate on cumulative-ACK *order statistics* (the k-th
    ACK of a jitter-reordered window releases the next burst), which no
    closed form captures cleanly. Instead we run the abstract release
    dynamics — sends, jittered arrivals, cumulative ACKs, window growth
    — without any packet machinery, over a private string-seeded RNG
    (stable across processes, never the world's stream), and average the
    completion time. Cached per (bounds, rtt, cwnd0, n): the figure
    batteries reuse a handful of keys, so the amortized cost is
    negligible against the packet-level events saved.
    """
    key = (fwd_bounds, rev_bounds, round(rtt_ms, 3), cwnd0, n)
    cached = _ROUND_JITTER_CACHE.get(key)
    if cached is not None:
        _ROUND_JITTER_CACHE.move_to_end(key)
        return cached
    # ``bound * draw()`` is ``rng.uniform(0.0, bound)`` by that method's
    # definition (``a + (b - a) * random()``), without its call overhead.
    draw = random.Random(f"repro-fastpath-round-jitter:{key}").random
    total = 0.0
    for _ in range(_ROUND_JITTER_SAMPLES):
        # Event tuples: (time, tiebreak, kind, value). kind 0 = arrival
        # at receiver (value = segment id), kind 1 = cumulative ACK back
        # at sender (value = cumulative count).
        events: list = []
        window = min(n, cwnd0)
        for seg in range(window):
            jitter = 0.0
            for bound in fwd_bounds:
                jitter += bound * draw()
            heapq.heappush(events, (jitter, seg, 0, seg))
        next_seg = window
        unacked = window
        cwnd = cwnd0
        acked = 0
        received: set = set()
        high = 0
        last_arrival = 0.0
        while events:
            time, _tie, kind, value = heapq.heappop(events)
            if kind == 0:  # data arrival; in-order delivery gates on max
                if time > last_arrival:
                    last_arrival = time
                received.add(value)
                while high in received:
                    received.discard(high)
                    high += 1
                jitter = 0.0
                for bound in rev_bounds:
                    jitter += bound * draw()
                heapq.heappush(events, (time + rtt_ms + jitter, value, 1, high))
            else:  # cumulative ACK
                newly = value - acked
                if newly <= 0:
                    continue
                acked = value
                unacked -= newly
                cwnd = min(MAX_CWND, cwnd + newly)
                while next_seg < n and unacked < cwnd:
                    jitter = 0.0
                    for bound in fwd_bounds:
                        jitter += bound * draw()
                    heapq.heappush(events,
                                   (time + jitter, next_seg, 0, next_seg))
                    next_seg += 1
                    unacked += 1
        total += last_arrival
    return _remember(_ROUND_JITTER_CACHE, key,
                     total / _ROUND_JITTER_SAMPLES - rounds * rtt_ms)


class EndpointRecord:
    """One registered transport endpoint (client or server side)."""

    __slots__ = ("conn", "kind", "conn_id", "side", "host", "peer_addr",
                 "via", "path", "net_header_bytes", "route", "peer")

    def __init__(self, conn: Any, kind: str, conn_id: int, side: str,
                 host: Any, peer_addr: Any, via: str, path: Any) -> None:
        self.conn = conn
        self.kind = kind
        self.conn_id = conn_id
        self.side = side
        self.host = host
        self.peer_addr = peer_addr
        self.via = via
        # A zero-hop path is how some callers spell "intra-AS".
        if path is not None and not path.hops:
            path = None
        self.path = path
        if via == "scion":
            self.net_header_bytes = (path.header_bytes() if path is not None
                                     else _SCION_LOCAL_HEADER_BYTES)
        else:
            from repro.internet.host import IP_HEADER_BYTES
            self.net_header_bytes = IP_HEADER_BYTES
        self.route: Any = None       # lazy: RouteLeg | _UNROUTABLE
        self.peer: "EndpointRecord | None" = None


class Transfer:
    """One in-flight fast-path message transfer."""

    __slots__ = ("stream_id", "payload", "size", "n_segments", "channel",
                 "sender_rec", "receiver_rec", "start_ms", "deliver_ms",
                 "handle", "cwnd0", "cwnd_final", "rtt_ms", "fwd_delay_ms",
                 "full_payload", "seg_bytes", "fwd_bytes", "ack_bytes",
                 "reservations", "close_after", "done")

    def __init__(self) -> None:
        self.close_after = False
        self.done = False
        #: Pending (dispatch_ms, handle) wire-reservation callbacks for
        #: rounds not yet dispatched, cancellable on demotion.
        self.reservations: list[tuple[float, Any]] = []


class FastPathStats:
    """Plain counters, independent of any metrics registry."""

    __slots__ = ("transfers", "fallbacks", "demotions")

    def __init__(self) -> None:
        self.transfers = 0
        self.fallbacks: dict[str, int] = {}
        self.demotions = 0


class FastPath:
    """Per-world fast-path controller.

    Wired by :class:`~repro.internet.build.Internet`: it subscribes to
    every link's ``watcher`` hook, hosts point back at it, and transport
    endpoints register at connect/accept time. The controller never
    draws from the world RNG except for the per-round jitter model, and
    schedules exactly one loop event per analytic transfer.
    """

    def __init__(self, network: Any, tracer=NULL_TRACER) -> None:
        self.loop = network.loop
        self.enabled = True
        #: Bumped on every link state transition; RouteLeg validations
        #: cache against it.
        self.epoch = 0
        self.tracer = tracer
        self.metrics = tracer.metrics
        self.stats = FastPathStats()
        self.disabled_reason: str | None = None
        self._endpoints: dict[tuple[str, int], dict[str, EndpointRecord]] = {}
        self._by_link: dict[int, list[Transfer]] = {}

    # -- observability -------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Route counters and demote events into an obs tracer."""
        self.tracer = tracer
        self.metrics = tracer.metrics

    # -- registration --------------------------------------------------------

    def register(self, conn: Any, kind: str, conn_id: int, side: str,
                 host: Any, peer_addr: Any, via: str, path: Any) -> None:
        """Register one side of a transport connection.

        Called from ``quic_connect``/``tcp_connect`` (client side) and
        the listeners' establish step (server side). A transfer becomes
        eligible once both sides of a connection are registered.
        """
        record = EndpointRecord(conn, kind, conn_id, side, host, peer_addr,
                                via, path)
        self._endpoints.setdefault((kind, conn_id), {})[side] = record
        conn.fastpath = self
        conn._fp_record = record

    # -- live revocation -----------------------------------------------------

    def on_link_changed(self, link: Any) -> None:
        """A link's dynamic state changed: invalidate and demote."""
        self.epoch += 1
        transfers = self._by_link.get(id(link))
        if transfers:
            reason = "link-down" if not link._up else "fault"
            for transfer in list(transfers):
                self._demote(transfer, reason)

    def disable(self, reason: str) -> None:
        """Turn the fast path off for the rest of this world's lifetime.

        The fault injector calls this at arm time so fault batteries run
        pure packet-level and stay bit-identical to oracle mode.
        """
        if not self.enabled:
            return
        self.enabled = False
        self.disabled_reason = reason
        seen: set[int] = set()
        pending: list[Transfer] = []
        for transfers in self._by_link.values():
            for transfer in transfers:
                if id(transfer) not in seen:
                    seen.add(id(transfer))
                    pending.append(transfer)
        for transfer in pending:
            self._demote(transfer, reason)

    # -- transfer entry point ------------------------------------------------

    def try_send(self, conn: Any, stream_id: int | None, channel: Any,
                 payload: Any, size: int) -> bool:
        """Attempt to carry one application message analytically.

        Returns True when the transfer was scheduled (the caller must
        *not* also hand it to the channel); False means packet-level
        fallback — and any in-flight fast-path transfers on the same
        channel have been demoted first so FIFO ordering survives.
        """
        if not self.enabled:
            return self._fallback("disabled", channel)
        if getattr(channel, "_fp_closing", False):
            raise ConnectionClosedError("channel is closed")
        record: EndpointRecord = conn._fp_record
        peer = record.peer
        if peer is None:
            pair = self._endpoints.get((record.kind, record.conn_id))
            other = "server" if record.side == "client" else "client"
            peer = pair.get(other) if pair else None
            if peer is None:
                return self._fallback("unpaired", channel)
            record.peer = peer
        if channel.closed or channel.broken or size < 0:
            # Let send_message raise the canonical error.
            return self._fallback("channel-state", channel)
        if channel._pending or channel._unacked:
            # Packet-level segments already in flight on this channel:
            # new data must queue behind them.
            return self._fallback("channel-busy", channel)

        fwd = record.route
        if fwd is None:
            fwd = record.route = _resolve_route(record)
        rev = peer.route
        if rev is None:
            rev = peer.route = _resolve_route(peer)
        if fwd is _UNROUTABLE or rev is _UNROUTABLE:
            return self._fallback("no-route", channel)
        epoch = self.epoch
        if not fwd.clean(epoch) or not rev.clean(epoch):
            return self._fallback("link-state", channel)

        mss = channel.mss
        n_segments = max(1, (size + mss - 1) // mss)
        full_payload = mss if n_segments > 1 else size
        last_payload = size - (n_segments - 1) * mss if n_segments > 1 else size
        overhead = channel.header_bytes + 8 + record.net_header_bytes  # +UDP
        full_bytes = full_payload + overhead
        last_bytes = last_payload + overhead
        ack_bytes = CONTROL_FRAME_BYTES + 8 + peer.net_header_bytes
        if full_bytes > fwd.min_mtu or ack_bytes > rev.min_mtu:
            return self._fallback("mtu", channel)

        now = self.loop.now
        # Contention: a second concurrent flow on a shared
        # finite-bandwidth link demotes whatever is in flight there and
        # keeps the new flow packet-level; stray packets mid-wire on a
        # finite link make it ineligible too (O(1) per finite hop —
        # zero hops on loopback-grade topologies).
        contended = False
        for leg in (fwd, rev):
            for link, sender in leg.finite:
                others = self._by_link.get(id(link))
                if others:
                    for transfer in list(others):
                        self._demote(transfer, "contention")
                    contended = True
                if link.inflight or link.busy_until(sender) > now:
                    contended = True
        if contended:
            return self._fallback("contention", channel)

        # Slow-start round arithmetic, mirroring ReliableChannel: the
        # initial burst is min(n, cwnd); each round's worth of ACKs
        # grows cwnd by the in-flight count and releases the next burst.
        active = getattr(channel, "_fp_active", None)
        chained = bool(active)
        cwnd0 = channel._fp_cwnd if chained else channel._cwnd
        window = n_segments if n_segments < cwnd0 else cwnd0
        sent = window
        cwnd = cwnd0
        rounds = 0
        last_window = window
        windows = [window]
        while sent < n_segments:
            cwnd = cwnd + window
            if cwnd > MAX_CWND:
                cwnd = MAX_CWND
            window = min(n_segments - sent, cwnd)
            sent += window
            rounds += 1
            last_window = window
            windows.append(window)

        rtt = (fwd.base_delay_ms + rev.base_delay_ms
               + full_bytes * fwd.inv_rate + ack_bytes * rev.inv_rate)
        # A channel that just finished *receiving* an analytic transfer
        # owes its access link the final cumulative ACK's serialization
        # time before it can put new data on the wire (the oracle's
        # receiver transmits that ACK ahead of any response segment).
        start = max(now, getattr(channel, "_fp_tx_busy_until", 0.0))
        if chained:
            start = max(start, channel._fp_busy_until)
        deliver = (start + rounds * rtt + fwd.base_delay_ms
                   + last_bytes * fwd.inv_rate
                   + (last_window - 1) * full_bytes * fwd.bottleneck_inv)
        # Expected jitter. Round-free transfers gate on the *slowest*
        # arrival of the initial window (an expected-max order
        # statistic); multi-round transfers additionally gate round
        # advances on cumulative-ACK order statistics, sampled by the
        # cached deterministic release-dynamics model.
        if fwd.jitter_bounds or rev.jitter_bounds:
            if rounds == 0:
                deliver += expected_max_jitter(fwd.jitter_bounds, last_window)
            elif n_segments <= _ROUND_JITTER_MAX_SEGMENTS:
                deliver += expected_round_jitter(
                    fwd.jitter_bounds, rev.jitter_bounds, rtt, cwnd0,
                    n_segments, rounds)
            else:
                deliver += (rounds * (fwd.jitter_mean + rev.jitter_mean)
                            + expected_max_jitter(fwd.jitter_bounds,
                                                  last_window))
        if deliver >= fwd.expiry_ms or deliver >= rev.expiry_ms:
            return self._fallback("path-expiry", channel)

        transfer = Transfer()
        transfer.stream_id = stream_id
        transfer.payload = payload
        transfer.size = size
        transfer.n_segments = n_segments
        transfer.channel = channel
        transfer.sender_rec = record
        transfer.receiver_rec = peer
        transfer.start_ms = start
        transfer.deliver_ms = deliver
        transfer.cwnd0 = cwnd0
        transfer.cwnd_final = min(MAX_CWND, cwnd0 + n_segments)
        transfer.rtt_ms = rtt
        transfer.fwd_delay_ms = max(0.0, deliver - start - rounds * rtt)
        transfer.full_payload = full_payload
        transfer.seg_bytes = full_bytes
        transfer.fwd_bytes = (n_segments - 1) * full_bytes + last_bytes
        transfer.ack_bytes = ack_bytes

        channel.stats.messages_sent += 1
        channel.stats.segments_sent += n_segments
        if active is None:
            channel._fp_active = [transfer]
        else:
            active.append(transfer)
        channel._fp_busy_until = deliver
        channel._fp_cwnd = transfer.cwnd_final
        for link, _sender in fwd.links:
            self._by_link.setdefault(id(link), []).append(transfer)
        for link, _sender in rev.links:
            self._by_link.setdefault(id(link), []).append(transfer)
        transfer.handle = self.loop.call_at(deliver, self._complete, transfer)
        # Wire reservations: each analytic burst occupies real
        # serialization slots (`Link._tx_free_at`) on every finite
        # forward hop for exactly the window the oracle's packets would,
        # so concurrent packet-level traffic — handshakes, competing
        # flows, a demoted sibling's resend — queues behind it
        # identically. Scheduled per (round, hop) at the burst's entry
        # time there; O(rounds × hops) events, still far below the
        # oracle's O(segments × hops).
        if fwd.finite_meta:
            last_round = len(windows) - 1
            for index, burst in enumerate(windows):
                dispatch = start + index * rtt
                for link, sender, entry, inv_sum, inv_max, inv in \
                        fwd.finite_meta:
                    at = dispatch + entry
                    tail = (dispatch + entry + full_bytes * inv_sum
                            + (burst - 1) * full_bytes * inv_max)
                    if index == last_round:
                        # The message's final segment is short.
                        tail -= (full_bytes - last_bytes) * inv
                    if at <= now:
                        if tail > link._tx_free_at.get(sender, 0.0):
                            link._tx_free_at[sender] = tail
                    else:
                        handle = self.loop.call_at(
                            at, self._reserve, link, sender, tail)
                        transfer.reservations.append((dispatch, handle))
        self.stats.transfers += 1
        self.metrics.counter("fastpath_transfers_total").inc()
        return True

    def _reserve(self, link: Any, sender: str, tail: float) -> None:
        """Stamp an analytic burst's serialization tail onto a hop."""
        if tail > link._tx_free_at.get(sender, 0.0):
            link._tx_free_at[sender] = tail

    def defer_close(self, channel: Any) -> bool:
        """Delay a channel close until its last in-flight fast-path
        transfer delivers (the CloseFrame must not beat the data)."""
        active = getattr(channel, "_fp_active", None)
        if not active:
            return False
        active[-1].close_after = True
        channel._fp_closing = True
        return True

    # -- completion / demotion ----------------------------------------------

    def _complete(self, transfer: Transfer) -> None:
        if transfer.done:
            return
        transfer.done = True
        self._unlink(transfer)
        channel = transfer.channel
        channel._fp_active.remove(transfer)
        channel._cwnd = transfer.cwnd_final
        # Deliver into the far side, mirroring datagram arrival: the
        # receiving stream is created (and accept waiters woken) *now*,
        # at delivery time, exactly as on_datagram would.
        receiver = transfer.receiver_rec.conn.fastpath_channel(
            transfer.stream_id)
        receiver.stats.segments_received += transfer.n_segments
        # The oracle's receiver serializes a final cumulative ACK onto
        # its access link right now; an immediate response (the HTTP
        # request→response turnaround) queues behind it. Stamp before
        # delivering — _deliver may resume the handler synchronously.
        rev_leg = transfer.receiver_rec.route
        busy = self.loop.now + transfer.ack_bytes * rev_leg.first_inv
        if busy > getattr(receiver, "_fp_tx_busy_until", 0.0):
            receiver._fp_tx_busy_until = busy
        receiver._deliver(transfer.payload)
        # Credit link counters with the packets the oracle would have
        # put on the wire (data forward, one cumulative ACK per segment
        # back), keeping utilization stats meaningful.
        n = transfer.n_segments
        fwd = transfer.sender_rec.route
        rev = transfer.receiver_rec.route
        for link, _sender in fwd.links:
            link.packets_sent += n
            link.bytes_sent += transfer.fwd_bytes
        for link, _sender in rev.links:
            link.packets_sent += n
            link.bytes_sent += n * transfer.ack_bytes
        if transfer.close_after:
            channel._fp_closing = False
            channel.close()

    def _demote(self, transfer: Transfer, reason: str) -> None:
        """Push an in-flight transfer back to packet level mid-stream.

        Progress so far is preserved. The slow-start round structure is
        reconstructed at demotion time; what counts as "kept" depends on
        why we are demoting:

        * contention / stream-order: a later flow's packets queue
          *behind* segments already serialized onto each hop, so every
          dispatched segment is wire-committed — only the undispatched
          remainder is resent. If the whole message is already on the
          wire, the analytic completion stands and no demotion happens.
        * fault / link-down / disable: the wire itself changed under the
          in-flight window, so only segments whose analytic arrival has
          already passed are kept; the rest re-runs real
          loss/retransmission dynamics over the now-faulty route.

        Either way the channel resumes at the congestion window the ACK
        clock would have grown to, so a demoted transfer keeps
        pipelining instead of restarting cold.
        """
        if transfer.done:
            return
        elapsed = self.loop.now - transfer.start_ms
        sent = arrived = acked = 0
        last_dispatch = 0.0
        last_window = 0
        if elapsed > 0 and transfer.size > 0:
            n, cwnd = transfer.n_segments, transfer.cwnd0
            window = min(n, cwnd)
            dispatch = 0.0
            while sent < n and dispatch <= elapsed:
                sent += window
                last_dispatch = dispatch
                last_window = window
                if dispatch + transfer.fwd_delay_ms <= elapsed:
                    arrived = sent
                if dispatch + transfer.rtt_ms <= elapsed:
                    acked = sent
                cwnd = min(MAX_CWND, cwnd + window)
                window = min(n - sent, cwnd)
                dispatch += transfer.rtt_ms
        wire_committed = reason in ("contention", "stream-order")
        if reason == "contention" and sent >= transfer.n_segments:
            # Fully on the wire: completion is already fixed. (stream-order
            # still demotes — the follow-up packet-level message on the
            # same channel is not physically queued behind our analytic
            # segments, so in-order delivery needs the resend.)
            return
        kept = sent if wire_committed else arrived
        transfer.done = True
        self.loop.cancel_scheduled(transfer.handle)
        self._unlink(transfer)
        channel = transfer.channel
        channel._fp_active.remove(transfer)
        self.stats.demotions += 1
        self.stats.fallbacks[reason] = self.stats.fallbacks.get(reason, 0) + 1
        self.metrics.counter("fastpath_fallbacks_total", reason=reason).inc()
        tracer = self.tracer
        if tracer.enabled:
            tracer.span("fastpath.demote", reason=reason,
                        size=transfer.size).end()
        # Committed rounds' wire reservations (scheduled at commit) stay
        # — those bursts are on the wire either way. Rounds that will
        # now never dispatch analytically must release theirs.
        for dispatch_ms, handle in transfer.reservations:
            if dispatch_ms > self.loop.now:
                self.loop.cancel_scheduled(handle)
        transfer.reservations = []
        kept = min(kept, transfer.n_segments - 1)
        remaining = transfer.size - kept * transfer.full_payload
        if transfer.size > 0:
            remaining = max(1, remaining)
        # send_message re-counts the message; undo the analytic credit.
        channel.stats.messages_sent -= 1
        channel.stats.segments_sent -= transfer.n_segments
        resume_cwnd = min(MAX_CWND, transfer.cwnd0 + kept)
        if reason == "contention":
            # The oracle would dispatch the rest only when the committed
            # burst's ACKs return: resume the packet-level resend on that
            # ACK clock, at the window those ACKs would have grown.
            resume_at = max(self.loop.now,
                            transfer.start_ms + last_dispatch
                            + transfer.rtt_ms)
        else:
            # Same-channel ordering (stream-order) or a changed wire
            # (fault/link-down/disable): the resend must enter the
            # channel before any follow-up message, so it goes out now.
            resume_at = self.loop.now
            if not wire_committed:
                resume_cwnd = min(MAX_CWND, transfer.cwnd0 + acked)
        if resume_at > self.loop.now:
            self.loop.call_at(resume_at, self._resume_packet_level, channel,
                              transfer, remaining, resume_cwnd)
        else:
            self._resume_packet_level(channel, transfer, remaining,
                                      resume_cwnd)

    def _resume_packet_level(self, channel: Any, transfer: Transfer,
                             remaining: int, resume_cwnd: int) -> None:
        """Re-issue the undelivered remainder of a demoted transfer
        through the packet-level channel (possibly ACK-clock delayed)."""
        if not channel.closed and not channel.broken:
            channel._cwnd = resume_cwnd
            channel.send_message(transfer.payload, remaining)
        if transfer.close_after:
            channel._fp_closing = False
            channel.close()

    def _unlink(self, transfer: Transfer) -> None:
        for leg in (transfer.sender_rec.route, transfer.receiver_rec.route):
            for link, _sender in leg.links:
                transfers = self._by_link.get(id(link))
                if transfers is not None:
                    try:
                        transfers.remove(transfer)
                    except ValueError:
                        pass
                    if not transfers:
                        del self._by_link[id(link)]

    def _fallback(self, reason: str, channel: Any = None) -> bool:
        self.stats.fallbacks[reason] = self.stats.fallbacks.get(reason, 0) + 1
        self.metrics.counter("fastpath_fallbacks_total", reason=reason).inc()
        if channel is not None:
            active = getattr(channel, "_fp_active", None)
            if active:
                # FIFO ordering: anything still in analytic flight must
                # land before the packet-level segments we are about to
                # emit on the same channel.
                for transfer in list(active):
                    self._demote(transfer, "stream-order")
        return False


# -- route resolution --------------------------------------------------------


def _resolve_route(record: EndpointRecord):
    """Walk the node graph from ``record.host`` toward its peer exactly
    the way the routers forward, collecting links and fixed delays.

    Returns a :class:`RouteLeg`, or :data:`_UNROUTABLE` when no clean
    analytic mirror exists (unknown node types, missing tables, …).
    """
    # Lazy import: the delay constant lives with the router model it
    # mirrors; importing here keeps repro.simnet loadable on its own.
    from repro.internet.router import PROCESSING_DELAY_MS

    host = record.host
    dst = record.peer_addr
    via = record.via
    path = record.path
    links: list[tuple[Any, str]] = []
    #: Processing delay accumulated before each link was appended, so
    #: RouteLeg can place per-hop entry times for wire reservations.
    pre: list[float] = []
    delay = 0.0
    expiry = float("inf")

    port = host.ports.get(getattr(host, "ROUTER_IFID", 1))
    if port is None:
        return _UNROUTABLE
    link = port.link
    pre.append(delay)
    links.append((link, host.name))
    try:
        router = link.peer_of(host.name)
        in_ifid = link.peer_port_of(host.name)
    except Exception:
        return _UNROUTABLE

    def deliver_local(router: Any) -> bool:
        nonlocal delay
        host_ports = getattr(router, "host_ports", None)
        if host_ports is None:
            return False
        ifid = host_ports.get(dst.host)
        if ifid is None:
            return False
        delay += PROCESSING_DELAY_MS
        final_port = router.ports.get(ifid)
        if final_port is None:
            return False
        pre.append(delay)
        links.append((final_port.link, router.name))
        final = final_port.link.peer_of(router.name)
        return getattr(final, "name", None) == dst.host

    if via == "scion" and path is not None:
        expiry = path.expiry_ms()
        hop_index = 0
        while True:
            if hop_index >= len(path.hops):
                return _UNROUTABLE
            hop = path.hops[hop_index]
            if getattr(router, "isd_as", None) != hop.isd_as:
                return _UNROUTABLE
            if hop.egress != 0:
                transit = in_ifid in router.external_ifids
                delay += (router.internal_latency_ms if transit
                          else PROCESSING_DELAY_MS)
                egress_port = router.ports.get(hop.egress)
                if egress_port is None:
                    return _UNROUTABLE
                link = egress_port.link
                pre.append(delay)
                links.append((link, router.name))
                next_router = link.peer_of(router.name)
                in_ifid = link.peer_port_of(router.name)
                router = next_router
                hop_index += 1
                continue
            next_index = hop_index + 1
            if (next_index < len(path.hops)
                    and path.hops[next_index].isd_as == hop.isd_as):
                hop_index = next_index  # segment crossover
                continue
            if not deliver_local(router):
                return _UNROUTABLE
            break
    elif via == "scion":
        if getattr(router, "isd_as", None) != dst.isd_as \
                or not deliver_local(router):
            return _UNROUTABLE
    else:  # legacy IP
        for _hop in range(64):  # defensive loop bound
            if getattr(router, "isd_as", None) is None:
                return _UNROUTABLE
            if router.isd_as == dst.isd_as:
                if not deliver_local(router):
                    return _UNROUTABLE
                break
            egress = router.ip_table.get(dst.isd_as)
            if egress is None:
                return _UNROUTABLE
            transit = in_ifid in router.external_ifids
            delay += (router.internal_latency_ms if transit
                      else PROCESSING_DELAY_MS)
            egress_port = router.ports.get(egress)
            if egress_port is None:
                return _UNROUTABLE
            link = egress_port.link
            pre.append(delay)
            links.append((link, router.name))
            next_router = link.peer_of(router.name)
            in_ifid = link.peer_port_of(router.name)
            router = next_router
        else:
            return _UNROUTABLE

    entries = []
    latency_prefix = 0.0
    for processing, (hop_link, _sender) in zip(pre, links):
        entries.append(processing + latency_prefix)
        latency_prefix += hop_link.config.latency_ms
    delay += latency_prefix
    return RouteLeg(links, delay, expiry, entries)
