"""Path usage and performance statistics.

"Statistics on path usage and performance of particular paths are
provided as feedback to users" (§4). The proxy records, per destination
host, which transport served each request, which SCION path was used
(by fingerprint), whether it complied with the active policy, and the
request latency — enough to render the UI's feedback panel and for the
experiments to assert on transport mix.

Latency is kept as per-host, per-transport histograms (fixed buckets,
deterministic) so the feedback panel can show tails, not just means.
These records are the store: :func:`repro.obs.metrics.observe` sums
them over hosts into ``proxy_*`` when somebody asks, and
:meth:`PathUsageStats.report` renders the network-side sections from
the snapshot it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import Histogram


def _latency_histogram() -> Histogram:
    return Histogram()


@dataclass
class PathRecord:
    """Accumulated use of one particular path."""

    fingerprint: str
    summary: str
    uses: int = 0
    total_latency_ms: float = 0.0

    @property
    def mean_latency_ms(self) -> float:
        """Average request latency observed over this path."""
        return self.total_latency_ms / self.uses if self.uses else 0.0


@dataclass
class HostStats:
    """Per-destination-host counters and latency distributions."""

    host: str
    scion_requests: int = 0
    ip_requests: int = 0
    blocked_requests: int = 0
    non_compliant: int = 0
    fallbacks: int = 0  # SCION was available but IP was used
    paths: dict[str, PathRecord] = field(default_factory=dict)
    #: Request latency distribution per transport.
    scion_latency: Histogram = field(default_factory=_latency_histogram)
    ip_latency: Histogram = field(default_factory=_latency_histogram)


@dataclass
class PathUsageStats:
    """Proxy-wide statistics, grouped per destination host."""

    hosts: dict[str, HostStats] = field(default_factory=dict)

    def _host(self, host: str) -> HostStats:
        if host not in self.hosts:
            self.hosts[host] = HostStats(host=host)
        return self.hosts[host]

    def record_scion(self, host: str, fingerprint: str, summary: str,
                     latency_ms: float, compliant: bool) -> None:
        """One request served over SCION."""
        stats = self._host(host)
        stats.scion_requests += 1
        if not compliant:
            stats.non_compliant += 1
        record = stats.paths.get(fingerprint)
        if record is None:
            record = stats.paths[fingerprint] = PathRecord(
                fingerprint=fingerprint, summary=summary)
        record.uses += 1
        record.total_latency_ms += latency_ms
        stats.scion_latency.observe(latency_ms)

    def record_ip(self, host: str, latency_ms: float,
                  scion_was_available: bool) -> None:
        """One request served over legacy IP."""
        stats = self._host(host)
        stats.ip_requests += 1
        if scion_was_available:
            stats.fallbacks += 1
        stats.ip_latency.observe(latency_ms)

    def record_blocked(self, host: str) -> None:
        """One request blocked by strict mode."""
        self._host(host).blocked_requests += 1

    # -- aggregates -----------------------------------------------------------

    def total_requests(self) -> int:
        """All requests the proxy handled (including blocked)."""
        return sum(stats.scion_requests + stats.ip_requests
                   + stats.blocked_requests for stats in self.hosts.values())

    def scion_share(self) -> float:
        """Fraction of *served* requests that went over SCION."""
        scion = sum(stats.scion_requests for stats in self.hosts.values())
        served = scion + sum(stats.ip_requests for stats in self.hosts.values())
        return scion / served if served else 0.0

    def report(self, metrics=None) -> str:
        """Human-readable feedback panel; handed a world's
        :func:`~repro.obs.metrics.observe` snapshot it adds the per-AS
        link utilization and what the fast path did."""
        lines = []
        for host in sorted(self.hosts):
            stats = self.hosts[host]
            lines.append(
                f"{host}: scion={stats.scion_requests} ip={stats.ip_requests} "
                f"blocked={stats.blocked_requests} "
                f"non-compliant={stats.non_compliant}")
            for transport, histogram in (("scion", stats.scion_latency),
                                         ("ip", stats.ip_latency)):
                if histogram.count:
                    lines.append(
                        f"  {transport} latency: mean "
                        f"{histogram.mean:.1f} ms, p50 "
                        f"{histogram.quantile(0.5):.1f} ms, p95 "
                        f"{histogram.quantile(0.95):.1f} ms "
                        f"(n={histogram.count})")
            for record in stats.paths.values():
                lines.append(f"  {record.summary} -> {record.uses} uses, "
                             f"mean {record.mean_latency_ms:.1f} ms")
        if metrics is None:
            return "\n".join(lines) if lines else "(no traffic yet)"
        utilization = metrics.gauges_named("as_link_bytes")
        if utilization:
            lines.append("per-AS link utilization (bytes sent on attached "
                         "links):")
            for labels, sent in utilization.items():
                lines.append(f"  {dict(labels)['isd_as']}: {sent:,.0f} B")
        transfers = metrics.total("fastpath_transfers")
        fallbacks = metrics.counters_named("fastpath_fallbacks")
        if transfers or fallbacks:
            lines.append(f"hybrid-fidelity fast path: "
                         f"{transfers:,.0f} analytic transfers")
            waits = metrics.total("fastpath_burst_waits")
            wait_ms = metrics.total("fastpath_wait_ms")
            lines.append(f"  bursts that queued at a transmitter: "
                         f"{waits:,.0f} ({wait_ms:,.3f} ms modelled wait)")
            for labels, count in fallbacks.items():
                lines.append(f"  fallback[{dict(labels)['reason']}]: "
                             f"{count:,.0f}")
        return "\n".join(lines) if lines else "(no traffic yet)"
