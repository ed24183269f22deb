"""HTTP messages and headers.

Messages are Python objects with explicit wire-size accounting (the
simulator charges links for the serialized size without producing actual
bytes). Header names are case-insensitive, per RFC 9110.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import AddressError, HttpError
from repro.topology.isd_as import decimal_value

#: The paper's HSTS-like response header (§4.2): operators set it to
#: instruct browsers to enforce strict SCION mode for this origin.
STRICT_SCION_HEADER = "Strict-SCION"

#: Approximate bytes of request line / status line + mandatory headers.
REQUEST_OVERHEAD_BYTES = 150
RESPONSE_OVERHEAD_BYTES = 180


class Headers:
    """An immutable, case-insensitive header multimap.

    Lookups and the wire size are answered from what the constructor
    computed once, so a block built once can serve every message that
    carries it.
    """

    __slots__ = ("_pairs", "_first", "_wire_bytes")

    def __init__(self, items: dict[str, str] | list[tuple[str, str]] | None = None):
        pairs: list[tuple[str, str]]
        if items is None:
            pairs = []
        elif isinstance(items, dict):
            pairs = list(items.items())
        else:
            pairs = list(items)
        self._pairs: tuple[tuple[str, str], ...] = tuple(
            (str(name), str(value)) for name, value in pairs)
        #: Lowered name → its first value.
        self._first: dict[str, str] = {}
        for name, value in self._pairs:
            self._first.setdefault(name.lower(), value)
        self._wire_bytes = sum(len(name) + len(value) + 4
                               for name, value in self._pairs)

    def get(self, name: str, default: str | None = None) -> str | None:
        """First value of ``name`` (case-insensitive), or ``default``."""
        return self._first.get(name.lower(), default)

    def has(self, name: str) -> bool:
        """True when the header is present."""
        return name.lower() in self._first

    def with_header(self, name: str, value: str) -> "Headers":
        """A copy with one header appended."""
        return Headers(list(self._pairs) + [(name, value)])

    def items(self) -> Iterator[tuple[str, str]]:
        """All (name, value) pairs in insertion order."""
        return iter(self._pairs)

    def wire_bytes(self) -> int:
        """Approximate serialized size of the header block."""
        return self._wire_bytes

    def __len__(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Headers({list(self._pairs)!r})"


#: The header block of a message that carries none (``Headers`` is
#: immutable, so every such message shares it).
_NO_HEADERS = Headers()

#: ``Strict-SCION`` value → its parsed ``(max-age, address)``. The parse
#: is a pure function of the string and ``HostAddr`` is frozen, so one
#: entry serves every response carrying the value: origins send a few
#: distinct values, each on many responses. The bound (oldest entry out
#: first) keeps values a peer makes up from growing it.
_STRICT_SCION_PARSED: dict[str, tuple[int | None, Any]] = {}
STRICT_SCION_MEMO_SIZE = 64


def _strict_scion_directives(value: str) -> tuple[int | None, Any]:
    """The memoised :func:`_parse_strict_scion` of ``value``."""
    parsed = _STRICT_SCION_PARSED.get(value)
    if parsed is None:
        parsed = _parse_strict_scion(value)
        if len(_STRICT_SCION_PARSED) >= STRICT_SCION_MEMO_SIZE:
            del _STRICT_SCION_PARSED[next(iter(_STRICT_SCION_PARSED))]
        _STRICT_SCION_PARSED[value] = parsed
    return parsed


def _parse_strict_scion(value: str) -> tuple[int | None, Any]:
    """``(max_age, address)`` of one ``Strict-SCION`` value.

    The first ``max-age=`` directive decides the max-age (ASCII decimal
    seconds, as :meth:`IsdAs.parse` reads numbers) and the first
    ``addr="isd-as,host"`` decides the address; either is None when
    absent or malformed — a malformed header is ignored, like HSTS's,
    and an advertisement must never break a load.
    """
    from repro.scion.addr import HostAddr
    max_age = address = None
    max_age_seen = address_seen = False
    for part in value.split(";"):
        part = part.strip()
        if not max_age_seen and part.startswith("max-age="):
            max_age_seen = True
            max_age = decimal_value(part[len("max-age="):])
        elif not address_seen and part.startswith("addr="):
            address_seen = True
            try:
                address = HostAddr.parse(
                    part[len("addr="):].strip().strip('"'))
            except AddressError:
                pass
    return max_age, address


@dataclass(frozen=True)
class HttpRequest:
    """An HTTP request.

    ``host``/``path`` identify the resource (the URL authority and path);
    the proxy uses ``host`` for SCION detection and policy decisions.
    """

    method: str
    host: str
    path: str
    headers: Headers = _NO_HEADERS
    body_size: int = 0

    def __post_init__(self) -> None:
        if self.method not in ("GET", "HEAD", "POST", "PUT", "DELETE",
                               "OPTIONS", "CONNECT"):
            raise HttpError(f"unsupported method {self.method!r}")
        if not self.path.startswith("/"):
            raise HttpError(f"path must start with '/': {self.path!r}")

    @property
    def url(self) -> str:
        """The absolute URL (scheme elided; the simulator has one)."""
        return f"{self.host}{self.path}"

    def wire_bytes(self) -> int:
        """Serialized request size."""
        return (REQUEST_OVERHEAD_BYTES + len(self.host) + len(self.path)
                + self.headers.wire_bytes() + self.body_size)


@dataclass(frozen=True)
class HttpResponse:
    """An HTTP response; ``body`` carries a content tag, not real bytes."""

    status: int
    headers: Headers = _NO_HEADERS
    body_size: int = 0
    body: Any = None

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 300

    def wire_bytes(self) -> int:
        """Serialized response size."""
        return (RESPONSE_OVERHEAD_BYTES + self.headers.wire_bytes()
                + self.body_size)

    def strict_scion_max_age(self) -> int | None:
        """The ``Strict-SCION`` header's max-age in seconds, or None when
        the header is absent or malformed (see :func:`_parse_strict_scion`)."""
        value = self.headers.get(STRICT_SCION_HEADER)
        if value is None:
            return None
        return _strict_scion_directives(value)[0]

    def strict_scion_address(self):
        """The optional ``addr="isd-as,host"`` directive.

        §4.3: the ``Strict-SCION`` header doubles as a SCION-availability
        advertisement; carrying the address lets a browser that fetched
        the response over legacy IP learn where to reach the origin over
        SCION. Returns a :class:`~repro.scion.addr.HostAddr` or None
        (absent or malformed — advertisements must never break a load).
        """
        value = self.headers.get(STRICT_SCION_HEADER)
        if value is None:
            return None
        return _strict_scion_directives(value)[1]


@dataclass(frozen=True)
class ResourceData:
    """Static content an origin server can serve."""

    size: int
    content_type: str = "application/octet-stream"
    body: Any = None
