"""Counters, gauges, fixed-bucket histograms — and the one way a
world's counts reach them.

Where spans answer "what did this request do", metrics answer "how
often and how long, overall". Instrumented code never writes a metric:
components keep their counts where they always did (the ``*Stats``
records, a few plain attributes) and :func:`observe` reads a world into
a fresh :class:`MetricsRegistry` by three rules:

1. every numeric field of every component record is
   ``<component>_<field>``, summed over the world's daemons / clients /
   admission services (``daemon_queries``, ``http_pool_waits``,
   ``admission_shed_stale{service=daemon}``, ``fastpath_fallbacks{reason=}``;
   a ``peak_*`` high-water mark becomes a gauge holding the largest);
2. every ended span's duration lands in ``span_ms{span=,status=}`` and
   every span event in ``span_events{event=}``;
3. every link is sampled from its own bookkeeping
   (``link_bytes_sent{link=}``, ``link_inflight``, ``link_busy_ms``) and
   attributed to the ASes it touches (``as_link_bytes{isd_as=}``,
   ``as_link_inflight``) by :func:`link_ases`.

Reading is plain arithmetic over finished state — no sampling, no
wall-clock, no RNG, nothing scheduled — so a world reads the same
whether or not anybody looks. Histograms use *fixed* bucket bounds so
two runs' snapshots diff cell-by-cell (see :mod:`repro.obs.export`).
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

    def absorb(self, other: "Histogram") -> None:
        """Add every observation of ``other`` (same bounds)."""
        if other.bounds != self.bounds:
            raise ValueError("cannot absorb a histogram with other bounds")
        for index, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket
        self.count += other.count
        self.total += other.total

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "bounds": ["inf" if math.isinf(b) else b for b in self.bounds],
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Interns instruments per ``(name, labels)`` and snapshots them."""

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

    def total(self, name: str) -> float:
        """The counters named ``name`` summed over their labels (0 when
        there are none) — how a reader takes one count of a world."""
        return sum(counter.value for (counter_name, _labels), counter
                   in self._counters.items() if counter_name == name)

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


# -- reading a world ----------------------------------------------------------

#: The label the keys of a dict-valued count become.
_KEY_LABELS = {"fallbacks": "reason", "selected": "kind"}


def _records(internet, browsers):
    """Every ``(component, labels, record, fields)`` of a world.

    ``fields`` is ``None`` for a ``*Stats`` record (all of its public
    fields are counts) and names the counts of a component that keeps
    them as plain attributes beside its configuration.
    """
    yield "revocation", {}, internet.revocations.stats, None
    yield "path_server", {}, internet.path_server.stats, None
    if internet.fastpath is not None:
        yield "fastpath", {}, internet.fastpath.stats, None
    admissions = [internet.path_server.admission]
    for host in internet.hosts.values():
        if host.daemon is not None:
            yield "daemon", {}, host.daemon.stats, None
            admissions.append(host.daemon.admission)
    for admission in admissions:
        if admission is not None:
            yield ("admission", {"service": admission.service},
                   admission.stats, None)
    for browser in browsers:
        proxy = browser.proxy
        yield "dns", {}, browser.resolver, ("queries", "cache_hits")
        yield "proxy", {}, proxy, ("fetches", "attempts", "failovers")
        yield ("retry_budget", {}, proxy.retry_budget,
               ("spent_total", "exhausted_total"))
        yield "selector", {}, proxy.selector, ("selections", "selected")
        for host_stats in proxy.stats.hosts.values():
            yield "proxy", {}, host_stats, None
        for client in (proxy.client, browser._direct_engine.fetcher.client):
            yield "http", {}, client.stats, None


def _observe_record(registry: MetricsRegistry, component: str,
                    labels: dict[str, Any], record: Any, fields) -> None:
    """Rule 1: one record's counts, added to ``<component>_<field>``."""
    if fields is None:
        fields = getattr(record, "__slots__", None) or vars(record)
    for field in fields:
        value = getattr(record, field)
        name = f"{component}_{field}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            if field.startswith("peak_"):
                # A high-water mark: the world's is the largest.
                gauge = registry.gauge(name, **labels)
                gauge.set(max(gauge.value, value))
            else:
                registry.counter(name, **labels).inc(value)
        elif isinstance(value, Histogram):
            registry.histogram(name, value.bounds, **labels).absorb(value)
        elif field in _KEY_LABELS:
            for key, count in value.items():
                registry.counter(name, **labels,
                                 **{_KEY_LABELS[field]: key}).inc(count)


def link_ases(link_name: str) -> list[str]:
    """The ASes a link's traffic is attributed to, parsed from its name:
    both sides of an inter-AS link (``1-ff00:0:110#1<->1-ff00:0:111#2``),
    the one AS of a host access link (``1-ff00:0:110<->client``)."""
    from repro.errors import AddressError
    from repro.topology.isd_as import IsdAs

    ases = []
    for endpoint in link_name.split("<->"):
        try:
            ases.append(str(IsdAs.parse(endpoint.split("#", 1)[0])))
        except AddressError:
            continue  # the host side of an access link
    return ases


def sample_links(registry: MetricsRegistry, network) -> None:
    """Rule 3: gauges from each :class:`~repro.simnet.link.Link`'s own
    bookkeeping — ``bytes_sent`` (the fast path credits it too, unlike
    the packet-trace ring), ``inflight`` (packets on the wire now) and
    ``busy_until`` (how far past *now* the busier direction's
    transmitter is committed: the clock packets queue on and the fast
    path stamps its bursts onto)."""
    now = network.loop.now
    for link in network.links:
        registry.gauge("link_bytes_sent", link=link.name).inc(link.bytes_sent)
        registry.gauge("link_inflight", link=link.name).inc(link.inflight)
        busiest = max((link.busy_until(sender)
                       for sender in link._tx_free_at), default=0.0)
        registry.gauge("link_busy_ms", link=link.name).set(
            max(0.0, busiest - now))
        for isd_as in link_ases(link.name):
            registry.gauge("as_link_bytes", isd_as=isd_as).inc(
                link.bytes_sent)
            registry.gauge("as_link_inflight", isd_as=isd_as).inc(
                link.inflight)


def observe(internet, browsers=(), spans=()) -> MetricsRegistry:
    """What this world did, as one fresh registry (the module
    docstring's three rules); writes nothing but what it returns."""
    registry = MetricsRegistry()
    seen: set[int] = set()
    for component, labels, record, fields in _records(internet, browsers):
        if id(record) not in seen:  # a resolver shared by every browser
            seen.add(id(record))
            _observe_record(registry, component, labels, record, fields)
    for span in spans:
        if span.end_ms is not None:
            registry.histogram("span_ms", span=span.name,
                               status=span.status).observe(span.duration_ms)
        for event in span.events:
            registry.counter("span_events", event=event.name).inc()
    sample_links(registry, internet.network)
    return registry
