"""A caching stub resolver.

The resolver holds an authoritative zone (the experiments register their
origins in it) and answers queries after a configurable latency,
modelling the resolver hop (DoH or OS). Answers combine the legacy A
record with any SCION TXT record, so one lookup gives the HTTP proxy
both the IPv4/6 address and — when the domain advertises one — the SCION
address to prefer (paper §4.3: "the HTTP proxy can determine to use
SCION, or to fall back to IP if no SCION address is available").

Cache entries respect TTLs against simulation time.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.dns.records import DnsRecord, RecordType, parse_scion_txt
from repro.errors import DnsError
from repro.obs.spans import NULL_SPAN, NULL_TRACER
from repro.scion.addr import HostAddr
from repro.simnet.events import EventLoop
from repro.units import seconds


@dataclass(frozen=True)
class Resolution:
    """The answer for one name."""

    name: str
    ip_address: HostAddr | None
    scion_address: HostAddr | None
    expires_at_ms: float

    @property
    def has_scion(self) -> bool:
        """True when the domain advertises a SCION address."""
        return self.scion_address is not None


class Resolver:
    """Zone + cache + latency model."""

    def __init__(self, loop: EventLoop, lookup_latency_ms: float = 5.0) -> None:
        self.loop = loop
        self.lookup_latency_ms = lookup_latency_ms
        self._zone: dict[str, list[DnsRecord]] = {}
        self._cache: dict[str, Resolution] = {}
        self.queries = 0
        self.cache_hits = 0
        self.tracer = NULL_TRACER

    # -- zone management ------------------------------------------------------

    def add_record(self, record: DnsRecord) -> None:
        """Install a record in the authoritative zone."""
        self._zone.setdefault(record.name, []).append(record)
        self._cache.pop(record.name, None)

    def register_host(self, name: str, ip_address: HostAddr | None = None,
                      scion_address: HostAddr | None = None,
                      ttl_s: int = 300) -> None:
        """Convenience: register A and/or SCION TXT records for a name."""
        if ip_address is None and scion_address is None:
            raise DnsError(f"{name}: nothing to register")
        if ip_address is not None:
            self.add_record(DnsRecord(name=name, record_type=RecordType.A,
                                      value=str(ip_address), ttl_s=ttl_s))
        if scion_address is not None:
            self.add_record(DnsRecord(name=name, record_type=RecordType.TXT,
                                      value=f"scion={scion_address}",
                                      ttl_s=ttl_s))

    # -- resolution ---------------------------------------------------------------

    def resolve(self, name: str, parent=NULL_SPAN) -> Generator:
        """Resolve ``name`` (simulation process).

        Usage: ``resolution = yield from resolver.resolve(name)``. Raises
        :class:`DnsError` for unknown names (NXDOMAIN).
        """
        tracer = self.tracer
        span = tracer.span("dns.resolve", parent=parent, host=name) \
            if tracer.enabled else NULL_SPAN
        self.queries += 1
        cached = self._cache.get(name)
        if cached is not None and cached.expires_at_ms > self.loop.now:
            self.cache_hits += 1
            span.set(cache_hit=True).end()
            return cached
        yield self.loop.timeout(self.lookup_latency_ms)
        records = self._zone.get(name)
        if not records:
            span.set(error="NXDOMAIN").end("error")
            raise DnsError(f"NXDOMAIN: {name}")
        resolution = self._build_resolution(name, records)
        self._cache[name] = resolution
        span.set(cache_hit=False).end()
        return resolution

    def _build_resolution(self, name: str,
                          records: list[DnsRecord]) -> Resolution:
        ip_address: HostAddr | None = None
        scion_address: HostAddr | None = None
        min_ttl = min(record.ttl_s for record in records)
        for record in records:
            if record.record_type is RecordType.A and ip_address is None:
                ip_address = HostAddr.parse(record.value)
            elif record.record_type is RecordType.TXT and scion_address is None:
                scion_address = parse_scion_txt(record.value)
        return Resolution(
            name=name,
            ip_address=ip_address,
            scion_address=scion_address,
            expires_at_ms=self.loop.now + seconds(min_ttl),
        )
