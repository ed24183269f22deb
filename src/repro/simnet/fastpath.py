"""Hybrid-fidelity fast path: analytic completion for clean transfers.

The per-packet event loop is the repository's fidelity oracle, but it
tops out around a million coroutine events per second — far short of the
ROADMAP's population-scale ambitions. This module adds the flow-level
fast path the ROADMAP names: when a reliable-transport message (QUIC
stream or TCP connection data) would traverse a route whose links are
all up, loss-free (``loss_rate + extra_loss_rate == 0``) and spike-free,
with no standing queue on it, its completion time is computed
*analytically* — the same slow-start round arithmetic, per-hop
serialization (``size/bandwidth``), propagation and router-crossing
delays ``Link.transmit`` and :class:`~repro.internet.router.AsRouter`
would produce packet by packet — and the payload is delivered to the far
channel by one chain of events: one per burst and finite-bandwidth hop,
then the delivery.

**Contention is judged at the transmitter, at the time the burst gets
there.** Sharing a link is not contention, and a packet in propagation
is in nobody's queue; what matters is whether a hop's transmitter
(``Link._tx_free_at``, the per-direction clock real packets queue on)
is still serializing when a burst's first segment reaches it.

* At commit a transfer falls back (reason ``contention``) only on what
  is already known: a forward hop stamped busy past the moment its
  first burst would arrive — a standing queue — or a hop on the way
  back serializing right now; ACKs are folded into the round-trip time
  and get no second look, so their path has to be idle when the
  rounds are laid out.
* Every burst is judged again when it reaches each finite hop
  (:meth:`FastPath._step`). It occupies the transmitter for exactly
  the window the oracle's packets would, so whatever arrives next —
  real packets or another analytic burst — queues behind it; if the
  transmitter is busy the burst itself queues FIFO behind whatever
  holds it, and its later hops and rounds, its completion and any
  message chained behind it on the channel slide by the wait.
* A transfer may absorb such modelled waits up to
  :data:`PLT_ERROR_BOUND` of its own uncontended duration. Past that it
  is in a real queue — where the oracle's retransmission timer fires
  and retry storms live — and goes back to packet level (reason
  ``queue``). The budget is a property of the input, not a knob: in a
  60-user city whose busiest link is 1.7 % utilised, 35 of 7,050
  transfers ever wait, 0.20 ms at most; in the flash crowd, whose
  1.5 Mbps detour holds seconds of backlog, two sends in three start in
  a standing queue and stay packet-level. A flow whose bursts take
  longer to serialize than its own round trip (bandwidth-limited, where
  the round arithmetic no longer holds) meets its own previous burst
  and demotes the same way.

No flow's arrival ever demotes another flow. What the block model gives
up is interleaving: two bursts that meet at a transmitter are served one
after the other, not packet by packet, so which of two near-simultaneous
transfers finishes first can differ from the oracle by the length of a
burst. The contended contract is therefore at distribution level (see
:mod:`repro.experiments.fastpath_ab`): a city's mean PLT within
:data:`PLT_ERROR_BOUND` and its p50/p95/p99 within 2 % of the oracle's,
the overload arms' mean within 3 %.

Eligibility is O(1) amortized and **revoked live**: every
:class:`~repro.simnet.link.Link` fault-hook transition (``up``,
``extra_loss_rate``, ``extra_latency_ms``, ``extra_jitter_ms``) bumps a
global epoch — invalidating all cached route validations — and demotes
any in-flight fast-path transfer crossing that link back to packet-level
mid-stream, resending the not-yet-"arrived" remainder through the
ordinary :class:`~repro.transport.reliable.ReliableChannel`
(infinite-bandwidth links serialize nothing, so flows on them provably
do not interact). Arming a :class:`~repro.simnet.faults.FaultInjector`
disables the fast path for the whole world up front, which keeps
fault/chaos/resilience batteries bit-identical to pure packet-level
mode.

Approximation contract (documented bound, asserted by the A/B harness
in :mod:`repro.experiments.fastpath_ab`): on fault-free figure
conditions the fast path reproduces every seed's PLT within
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

#: Documented PLT approximation bound (fraction of the packet-level
#: oracle's value): per seed on fault-free figure conditions, on the
#: mean in a contended city — and therefore also the share of its own
#: duration a transfer may spend in modelled queueing.
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
                 "finite_meta", "inv_rate", "bottleneck_inv", "min_mtu",
                 "expiry_ms", "static_clean", "_epoch")

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
        # ms-per-byte factors: serialization of B bytes over the whole
        # leg is B * inv_rate; the slowest hop clocks out a burst at
        # B * bottleneck_inv per segment.
        rates = [1.0 / (link.config.bandwidth_mbps * 125.0)
                 for link, _sender in self.links
                 if link.config.bandwidth_mbps > 0.0]
        self.inv_rate = sum(rates)
        self.bottleneck_inv = max(rates, default=0.0)
        # Per finite hop: (link, sender, fixed delay before entering the
        # hop, Σ inv over the finite hops before it, max inv up to and
        # including it, own inv) — enough to place each analytic burst's
        # serialization window on each hop, so whatever reaches the
        # transmitter next (handshakes, competing flows' packets,
        # another analytic burst) queues behind it as it would behind
        # the oracle's packets.
        if entry_delays is None:
            entry_delays = [0.0] * len(self.links)
        meta = []
        inv_before = 0.0
        inv_max = 0.0
        for (link, sender), entry in zip(self.links, entry_delays):
            bandwidth = link.config.bandwidth_mbps
            if bandwidth > 0.0:
                inv = 1.0 / (bandwidth * 125.0)
                inv_max = max(inv_max, inv)
                meta.append((link, sender, entry, inv_before, inv_max, inv))
                inv_before += inv
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
    push, pop = heapq.heappush, heapq.heappop
    first_window = min(n, cwnd0)
    total = 0.0
    for _ in range(_ROUND_JITTER_SAMPLES):
        # Event tuples: (time, tiebreak, kind, value). kind 0 = arrival
        # at receiver (value = segment id), kind 1 = cumulative ACK back
        # at sender (value = cumulative count).
        events: list = []
        for seg in range(first_window):
            jitter = 0.0
            for bound in fwd_bounds:
                jitter += bound * draw()
            events.append((jitter, seg, 0, seg))
        heapq.heapify(events)
        next_seg = unacked = first_window
        cwnd = cwnd0
        acked = 0
        arrived = [False] * n
        high = 0
        last_arrival = 0.0
        while next_seg < n:
            time, _tie, kind, value = pop(events)
            if kind == 0:  # data arrival; in-order delivery gates on max
                if time > last_arrival:
                    last_arrival = time
                arrived[value] = True
                while high < n and arrived[high]:
                    high += 1
                jitter = 0.0
                for bound in rev_bounds:
                    jitter += bound * draw()
                push(events, (time + rtt_ms + jitter, value, 1, high))
            elif value > acked:  # cumulative ACK that acknowledges more
                unacked -= value - acked
                cwnd = min(MAX_CWND, cwnd + value - acked)
                acked = value
                while next_seg < n and unacked < cwnd:
                    jitter = 0.0
                    for bound in fwd_bounds:
                        jitter += bound * draw()
                    push(events, (time + jitter, next_seg, 0, next_seg))
                    next_seg += 1
                    unacked += 1
        # Everything is released: no ACK can change the outcome any
        # more, which is the slowest arrival still under way. Each of
        # those would have drawn its ACK's jitter; keep the stream
        # where the next sample expects it.
        for time, _tie, kind, _value in events:
            if kind == 0:
                if time > last_arrival:
                    last_arrival = time
                for _bound in rev_bounds:
                    draw()
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
                 "full_payload", "seg_bytes", "last_bytes", "fwd_bytes",
                 "ack_bytes", "windows", "round", "hop", "wait_budget_ms",
                 "close_after", "done")

    def __init__(self) -> None:
        self.close_after = False
        self.done = False
        #: The transfer's one pending loop event: its next `_step`, or
        #: its completion once the last burst has passed the last hop.
        self.handle: Any = None
        #: Which burst (index into ``windows``) reaches which finite
        #: forward hop at that step.
        self.round = 0
        self.hop = 0


class FastPathStats:
    """The fast path's counts (``fallbacks`` is keyed by reason);
    :func:`repro.obs.metrics.observe` reads them as ``fastpath_*``."""

    __slots__ = ("transfers", "fallbacks", "demotions", "burst_waits",
                 "wait_ms")

    def __init__(self) -> None:
        self.transfers = 0
        self.fallbacks: dict[str, int] = {}
        self.demotions = 0
        #: Times an analytic burst found a hop's transmitter busy and
        #: queued behind it, and the total wait so modelled.
        self.burst_waits = 0
        self.wait_ms = 0.0


class FastPath:
    """Per-world fast-path controller.

    Wired by :class:`~repro.internet.build.Internet`: it subscribes to
    every link's ``watcher`` hook, hosts point back at it, and transport
    endpoints register at connect/accept time. The controller never
    draws from the world RNG (the per-round jitter model has a private
    stream), and keeps one pending loop event per analytic transfer.
    """

    def __init__(self, network: Any, tracer=NULL_TRACER) -> None:
        self.loop = network.loop
        self.enabled = True
        #: Bumped on every link state transition; RouteLeg validations
        #: cache against it.
        self.epoch = 0
        self.tracer = tracer
        self.stats = FastPathStats()
        self.disabled_reason: str | None = None
        self._endpoints: dict[tuple[str, int], dict[str, EndpointRecord]] = {}
        self._by_link: dict[int, list[Transfer]] = {}

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
        active = getattr(channel, "_fp_active", None)
        chained = bool(active)
        # A channel that just finished *receiving* an analytic transfer
        # owes its access link the final cumulative ACK's serialization
        # time before it can put new data on the wire (the oracle's
        # receiver transmits that ACK ahead of any response segment).
        start = max(now, getattr(channel, "_fp_tx_busy_until", 0.0))
        if chained:
            start = max(start, channel._fp_busy_until)
        # At commit, only what is already known (see the module
        # docstring): a standing queue where the first burst is headed,
        # or an ACK path that is serializing right now. Everything else
        # is judged when a burst meets a transmitter (`_step`).
        for link, sender, entry, _before, _max, _inv in fwd.finite_meta:
            if link._tx_free_at[sender] > start + entry:
                return self._fallback("contention", channel)
        for link, sender, _entry, _before, _max, _inv in rev.finite_meta:
            if link._tx_free_at[sender] > now:
                return self._fallback("contention", channel)

        # Slow-start round arithmetic, mirroring ReliableChannel: the
        # initial burst is min(n, cwnd); each round's worth of ACKs
        # grows cwnd by the in-flight count and releases the next burst.
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
        # The last burst clocks out of the bottleneck one full segment
        # at a time; its final, short segment serializes faster than the
        # full one ahead of it and can catch up with it at any later
        # hop — a tandem of FIFO queues, so the slowest staircase wins.
        pipeline = (last_bytes * fwd.inv_rate
                    + (last_window - 1) * full_bytes * fwd.bottleneck_inv)
        if last_bytes < full_bytes and last_window > 1:
            for _link, _sender, _entry, inv_before, inv_max, inv in \
                    fwd.finite_meta:
                caught_up = (full_bytes * (inv_before + inv)
                             + (last_window - 2) * full_bytes * inv_max
                             + last_bytes * (fwd.inv_rate - inv_before))
                if caught_up > pipeline:
                    pipeline = caught_up
        deliver = start + rounds * rtt + fwd.base_delay_ms + pipeline
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
        transfer.last_bytes = last_bytes
        transfer.fwd_bytes = (n_segments - 1) * full_bytes + last_bytes
        transfer.ack_bytes = ack_bytes
        transfer.windows = windows
        # Modelled queueing a transfer may absorb before it is demoted:
        # the documented error bound, as a share of its own duration.
        transfer.wait_budget_ms = PLT_ERROR_BOUND * (deliver - start)

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
        # One pending event per transfer: each burst visits each finite
        # forward hop in turn (`_step`), then the message is delivered.
        # O(rounds × hops) events, still far below the oracle's
        # O(segments × hops); a route with no finite hop is one event.
        if not fwd.finite_meta:
            transfer.handle = self.loop.call_at(deliver, self._complete,
                                                transfer)
        else:
            at = start + fwd.finite_meta[0][2]
            if at > now:
                transfer.handle = self.loop.call_at(at, self._step, transfer)
            else:
                self._step(transfer)
        self.stats.transfers += 1
        return True

    def _step(self, transfer: Transfer) -> None:
        """The transfer's current burst reaches its next finite hop.

        The burst occupies the hop's transmitter (`Link._tx_free_at`)
        for exactly the window the oracle's packets would, so whatever
        arrives next — real packets or another analytic burst — queues
        behind it. If the transmitter is still busy, the burst itself
        queues FIFO behind whatever holds it and the rest of the
        transfer slides by the wait; a transfer that has waited past its
        budget is in a real queue and goes back to packet level.
        """
        hops = transfer.sender_rec.route.finite_meta
        link, sender, entry, inv_before, inv_max, inv = hops[transfer.hop]
        index = transfer.round
        full_bytes = transfer.seg_bytes
        # The burst's first segment has serialized over the hops before.
        arrive = (transfer.start_ms + index * transfer.rtt_ms + entry
                  + full_bytes * inv_before)
        wait = link._tx_free_at[sender] - arrive
        if wait > 0.0:
            transfer.wait_budget_ms -= wait
            if transfer.wait_budget_ms < 0.0:
                transfer.handle = None  # this event; nothing else pending
                active = transfer.channel._fp_active
                for queued in active[active.index(transfer):]:
                    # In channel order: messages chained behind the
                    # demoted one must not overtake its resend.
                    self._demote(queued, "queue" if queued is transfer
                                 else "stream-order")
                return
            self._slide(transfer, wait)
            arrive += wait
        last_round = index == len(transfer.windows) - 1
        tail = (arrive + full_bytes * inv
                + (transfer.windows[index] - 1) * full_bytes * inv_max)
        if last_round:
            # The message's final segment is short.
            tail -= (full_bytes - transfer.last_bytes) * inv
        link._tx_free_at[sender] = tail
        if transfer.hop + 1 < len(hops):
            transfer.hop += 1
        elif not last_round:
            transfer.round += 1
            transfer.hop = 0
        else:
            transfer.handle = self.loop.call_at(
                transfer.deliver_ms, self._complete, transfer)
            return
        transfer.handle = self.loop.call_at(
            transfer.start_ms + transfer.round * transfer.rtt_ms
            + hops[transfer.hop][2], self._step, transfer)

    def _slide(self, transfer: Transfer, wait: float) -> None:
        """Shift the rest of ``transfer``'s schedule — later hops and
        rounds, completion — and every message chained behind it on its
        channel by a modelled queueing ``wait``."""
        self.stats.burst_waits += 1
        self.stats.wait_ms += wait
        channel = transfer.channel
        channel._fp_busy_until += wait
        active = channel._fp_active
        first_entry = transfer.sender_rec.route.finite_meta[0][2]
        for queued in active[active.index(transfer):]:
            queued.start_ms += wait
            queued.deliver_ms += wait
            if queued is not transfer:
                # Not started: its pending event is its first step.
                self.loop.cancel_scheduled(queued.handle)
                queued.handle = self.loop.call_at(
                    queued.start_ms + first_entry, self._step, queued)

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
        # Deliver into the far side, mirroring datagram arrival, and
        # credit the link counters with the packets the oracle would
        # have put on the wire, keeping utilization stats meaningful.
        receiver = self._credit(transfer, transfer.n_segments,
                                transfer.fwd_bytes)
        # The oracle's receiver puts a final cumulative ACK on the wire
        # right now; an immediate response (the HTTP request→response
        # turnaround) trails it hop by hop and is held up for as long
        # as the ACK occupies the slowest one. Stamp before delivering
        # — _deliver may resume the handler synchronously.
        rev_leg = transfer.receiver_rec.route
        busy = self.loop.now + transfer.ack_bytes * rev_leg.bottleneck_inv
        if busy > getattr(receiver, "_fp_tx_busy_until", 0.0):
            receiver._fp_tx_busy_until = busy
        receiver._deliver(transfer.payload)
        if transfer.close_after:
            channel._fp_closing = False
            channel.close()

    def _demote(self, transfer: Transfer, reason: str) -> None:
        """Push an in-flight transfer back to packet level mid-stream.

        Only the transfer itself (and, for channel order, messages
        chained behind it) is ever demoted — never another flow.
        Progress so far is preserved; what counts as "kept" depends on
        why we are demoting:

        * queue: the bursts before the one that met the queue are
          through; that burst and the rest re-run at packet level, so
          they wait in the real queue, ACK clock and retransmission
          timer included.
        * stream-order: a follow-up packet-level message on the same
          channel is not physically queued behind our analytic
          segments, so in-order delivery needs a resend — of the
          undispatched remainder only, every dispatched segment being
          wire-committed.
        * fault / link-down / disable: the wire itself changed under the
          in-flight window, so only segments whose analytic arrival has
          already passed are kept; the rest re-runs real
          loss/retransmission dynamics over the now-faulty route.

        Kept segments are credited to the channel and link counters
        here (`_complete` will never run), the remainder is counted as
        it is resent, and the channel resumes — now, so the resend
        enters the channel before any follow-up message — at the
        congestion window the ACK clock would have grown to, so a
        demoted transfer keeps pipelining instead of restarting cold.
        """
        if transfer.done:
            return
        if reason == "queue":
            kept = grown = sum(transfer.windows[:transfer.round])
        else:
            # Reconstruct the slow-start round structure from the clock.
            elapsed = self.loop.now - transfer.start_ms
            sent = arrived = acked = 0
            if elapsed > 0 and transfer.size > 0:
                n, cwnd = transfer.n_segments, transfer.cwnd0
                window = min(n, cwnd)
                dispatch = 0.0
                while sent < n and dispatch <= elapsed:
                    sent += window
                    if dispatch + transfer.fwd_delay_ms <= elapsed:
                        arrived = sent
                    if dispatch + transfer.rtt_ms <= elapsed:
                        acked = sent
                    cwnd = min(MAX_CWND, cwnd + window)
                    window = min(n - sent, cwnd)
                    dispatch += transfer.rtt_ms
            if reason == "stream-order":
                kept = grown = sent
            else:
                kept, grown = arrived, acked
        transfer.done = True
        if transfer.handle is not None:
            self.loop.cancel_scheduled(transfer.handle)
        self._unlink(transfer)
        channel = transfer.channel
        channel._fp_active.remove(transfer)
        self.stats.demotions += 1
        self.stats.fallbacks[reason] = self.stats.fallbacks.get(reason, 0) + 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.span("fastpath.demote", reason=reason,
                        size=transfer.size).end()
        # The payload rides the message's last segment: always resent.
        kept = min(kept, transfer.n_segments - 1)
        remaining = transfer.size - kept * transfer.full_payload
        if transfer.size > 0:
            remaining = max(1, remaining)
        # send_message counts the message and the resent segments.
        channel.stats.messages_sent -= 1
        channel.stats.segments_sent -= transfer.n_segments - kept
        if kept:
            self._credit(transfer, kept, kept * transfer.seg_bytes)
        if not channel.closed and not channel.broken:
            channel._cwnd = min(MAX_CWND,
                                transfer.cwnd0 + min(grown, kept))
            channel.send_message(transfer.payload, remaining)
        if transfer.close_after:
            channel._fp_closing = False
            channel.close()

    def _credit(self, transfer: Transfer, segments: int,
                fwd_bytes: int) -> Any:
        """Count ``segments`` analytically carried segments where the
        oracle would have: received by the far channel (returned), data
        on every forward link, one cumulative ACK each on the way back."""
        # The receiving stream is created (and accept waiters woken) on
        # first use, exactly as on_datagram would at first arrival.
        receiver = transfer.receiver_rec.conn.fastpath_channel(
            transfer.stream_id)
        receiver.stats.segments_received += segments
        for link, _sender in transfer.sender_rec.route.links:
            link.packets_sent += segments
            link.bytes_sent += fwd_bytes
        ack_bytes = segments * transfer.ack_bytes
        for link, _sender in transfer.receiver_rec.route.links:
            link.packets_sent += segments
            link.bytes_sent += ack_bytes
        return receiver

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
