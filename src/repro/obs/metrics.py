"""Process-local counters, gauges, and fixed-bucket histograms.

The quantitative half of ``repro.obs``: where spans answer "what did
this request do", metrics answer "how often and how long, overall" —
``requests_total{transport=scion}``, ``path_lookup_ms``,
``retry_count``, the snapshot-cache hit ratio. Everything is plain
in-process arithmetic: no sampling, no wall-clock, no RNG, so a metered
run stays bit-identical to an unmetered one.

Instruments are interned per ``(name, labels)`` in a
:class:`MetricsRegistry`; histograms use *fixed* bucket bounds so two
runs' snapshots diff cell-by-cell (see :mod:`repro.obs.export`).
:data:`NULL_REGISTRY` is the disabled twin — its instruments are shared
no-ops — which is what :data:`repro.obs.spans.NULL_TRACER` exposes so
uninstrumented worlds never pay for aggregation.
"""

from __future__ import annotations

import bisect
import math
from typing import Any

#: Default bucket upper bounds for latency histograms (simulated ms).
#: The last bucket is +inf, so every observation lands somewhere.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 30_000.0, math.inf)

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelItems:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def render_key(name: str, labels: LabelItems) -> str:
    """``name{k=v,...}`` — the stable text form used in snapshots."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go anywhere (cache sizes, ratios)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust by ``amount`` (may be negative)."""
        self.value += amount


class Histogram:
    """Fixed-bucket distribution of observations.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]`` (and
    greater than ``bounds[i-1]``); the final bound is always ``inf``.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS
                 ) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(bounds)
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted")
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Average of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile: the smallest bound whose
        cumulative count covers fraction ``q`` (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if self.count == 0:
            return 0.0
        needed = q * self.count
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            if running >= needed:
                return bound
        return self.bounds[-1]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "bounds": ["inf" if math.isinf(b) else b for b in self.bounds],
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
        }


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for disabled worlds."""

    __slots__ = ()

    value = 0.0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Interns instruments per ``(name, labels)`` and snapshots them."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelItems], Counter] = {}
        self._gauges: dict[tuple[str, LabelItems], Gauge] = {}
        self._histograms: dict[tuple[str, LabelItems], Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create the counter for ``(name, labels)``."""
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create the gauge for ``(name, labels)``."""
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
                  **labels: Any) -> Histogram:
        """Get or create the histogram for ``(name, labels)``.

        ``bounds`` only applies on first creation; later calls return
        the interned instrument unchanged.
        """
        key = (name, _label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(bounds)
        return histogram

    def gauges_named(self, name: str) -> dict[tuple, float]:
        """All gauges with ``name``, keyed by their label items.

        Label items are the interned ``(key, value)`` tuples, sorted —
        what reports iterate to render one family of gauges (e.g. the
        per-AS link-utilization section).
        """
        return {labels: gauge.value
                for (gauge_name, labels), gauge in sorted(
                    self._gauges.items())
                if gauge_name == name}

    def counters_named(self, name: str) -> dict[tuple, float]:
        """All counters with ``name``, keyed by their label items.

        The counter twin of :meth:`gauges_named` — what reports iterate
        to render one counter family (e.g. the fast-path fallback
        breakdown by reason).
        """
        return {labels: counter.value
                for (counter_name, labels), counter in sorted(
                    self._counters.items())
                if counter_name == name}

    # -- output -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Everything recorded so far, JSON-ready and diff-stable."""
        return {
            "counters": {render_key(name, labels): counter.value
                         for (name, labels), counter
                         in sorted(self._counters.items())},
            "gauges": {render_key(name, labels): gauge.value
                       for (name, labels), gauge
                       in sorted(self._gauges.items())},
            "histograms": {render_key(name, labels): histogram.to_dict()
                           for (name, labels), histogram
                           in sorted(self._histograms.items())},
        }

    def render(self) -> str:
        """Human-readable dump of every instrument."""
        lines = []
        for (name, labels), counter in sorted(self._counters.items()):
            lines.append(f"{render_key(name, labels)} {counter.value:g}")
        for (name, labels), gauge in sorted(self._gauges.items()):
            lines.append(f"{render_key(name, labels)} {gauge.value:g}")
        for (name, labels), histogram in sorted(self._histograms.items()):
            lines.append(
                f"{render_key(name, labels)} n={histogram.count} "
                f"mean={histogram.mean:.2f} p50={histogram.quantile(0.5):g} "
                f"p95={histogram.quantile(0.95):g}")
        return "\n".join(lines) if lines else "(no metrics recorded)"


class NullRegistry:
    """The disabled registry: every instrument is the shared no-op."""

    __slots__ = ()

    enabled = False

    def counter(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauges_named(self, name: str) -> dict[tuple, float]:
        return {}

    def counters_named(self, name: str) -> dict[tuple, float]:
        return {}

    def histogram(self, name: str, bounds: tuple[float, ...] = (),
                  **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def render(self) -> str:
        return "(metrics disabled)"


#: The shared disabled registry (what ``NULL_TRACER.metrics`` is).
NULL_REGISTRY = NullRegistry()


def export_snapshot_cache_metrics(registry: MetricsRegistry) -> None:
    """Re-export the control-plane snapshot-cache counters as gauges.

    Reads :data:`repro.internet.snapshot.stats` (process-local) so a
    trace artifact records how much control-plane work the trial's
    worlds actually skipped.
    """
    from repro.internet import snapshot

    stats = snapshot.stats
    registry.gauge("snapshot_cache_hits").set(stats.hits)
    registry.gauge("snapshot_cache_misses").set(stats.misses)
    registry.gauge("snapshot_cache_bypasses").set(stats.bypasses)
    registry.gauge("snapshot_cache_evictions").set(stats.evictions)
    lookups = stats.hits + stats.misses
    registry.gauge("snapshot_cache_hit_ratio").set(
        stats.hits / lookups if lookups else 0.0)
    registry.gauge("snapshot_cache_size").set(snapshot.cache_size())


def export_link_utilization(registry: MetricsRegistry, trace) -> None:
    """Sample per-link and per-AS utilization gauges from a packet trace.

    Reads the :class:`~repro.simnet.trace.PacketTrace` ring buffer's
    send accounting and publishes two gauge families:

    * ``link_bytes_sent{link=…}`` — bytes sent on each named link;
    * ``as_link_bytes{isd_as=…}`` — the same bytes attributed to every
      AS endpoint parsed out of the link names (inter-AS links count for
      both sides; a host access link counts for its AS).

    Purely observational: reads the ring, writes gauges, touches no
    simulation state.
    """
    from repro.errors import AddressError
    from repro.topology.isd_as import IsdAs

    per_as: dict[str, float] = {}
    for link_name, sent in sorted(trace.bytes_by_link().items()):
        registry.gauge("link_bytes_sent", link=link_name).set(sent)
        for endpoint in link_name.split("<->"):
            as_text = endpoint.split("#", 1)[0]
            try:
                isd_as = IsdAs.parse(as_text)
            except AddressError:
                continue  # the host side of an access link
            key = str(isd_as)
            per_as[key] = per_as.get(key, 0.0) + sent
    for isd_as_text, total in sorted(per_as.items()):
        registry.gauge("as_link_bytes", isd_as=isd_as_text).set(total)


def export_link_contention(registry: MetricsRegistry, network) -> None:
    """Sample per-link and per-AS contention gauges from live links.

    Reads each :class:`~repro.simnet.link.Link`'s own bookkeeping —
    ``inflight`` (packets on the wire right now, propagation included)
    and ``busy_until(sender)`` (when each direction's transmitter frees
    up: the clock packets queue on, and the one the fast path judges
    contention by and stamps its bursts onto) — and publishes:

    * ``link_inflight{link=…}`` — in-flight packets per named link;
    * ``link_busy_ms{link=…}`` — how far beyond *now* the busier
      direction's transmitter is committed (0 when idle);
    * ``as_link_inflight{isd_as=…}`` — in-flight packets attributed to
      every AS endpoint parsed out of the link names, the contention
      companion of the per-AS utilization family above.

    Purely observational, like :func:`export_link_utilization`.
    """
    from repro.errors import AddressError
    from repro.topology.isd_as import IsdAs

    now = network.loop.now
    per_as: dict[str, float] = {}
    for link in network.links:
        registry.gauge("link_inflight", link=link.name).set(link.inflight)
        busiest = max((link.busy_until(sender)
                       for sender in link._tx_free_at), default=0.0)
        registry.gauge("link_busy_ms", link=link.name).set(
            max(0.0, busiest - now))
        for endpoint in link.name.split("<->"):
            as_text = endpoint.split("#", 1)[0]
            try:
                isd_as = IsdAs.parse(as_text)
            except AddressError:
                continue  # the host side of an access link
            key = str(isd_as)
            per_as[key] = per_as.get(key, 0.0) + link.inflight
    for isd_as_text, total in sorted(per_as.items()):
        registry.gauge("as_link_inflight", isd_as=isd_as_text).set(total)
