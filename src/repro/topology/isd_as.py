"""ISD-AS identifiers.

SCION addresses an AS by the pair (ISD number, AS number) written
``isd-as``, where the AS number uses a dotted-hex BGP-style notation for
values above 2^32, e.g. ``1-ff00:0:110``. This module parses and formats
both the plain-decimal and the dotted-hex forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering

from repro.errors import AddressError

#: AS numbers are 48-bit in SCION.
MAX_ASN = (1 << 48) - 1
#: ISD numbers are 16-bit.
MAX_ISD = (1 << 16) - 1

_HEX_ASN_RE = re.compile(
    r"([0-9a-fA-F]{1,4}):([0-9a-fA-F]{1,4}):([0-9a-fA-F]{1,4})")
#: A decimal number as the notation writes it: ASCII digits and nothing
#: else (``int()`` would also take a sign, ``_`` separators, surrounding
#: whitespace and non-ASCII digits). Twenty digits are more than any
#: ISD or AS number needs, and keep ``int()`` off arbitrarily long text.
_DECIMAL_RE = re.compile(r"[0-9]{1,20}")


def decimal_value(text: str) -> int | None:
    """``text`` as a decimal number, or None if it is not one."""
    return int(text) if _DECIMAL_RE.fullmatch(text) else None


def parse_isd(text: str) -> int:
    """Parse an ISD number (decimal); raises :class:`AddressError` for
    anything else."""
    value = decimal_value(text)
    if value is None:
        raise AddressError(f"invalid ISD {text!r}")
    if value > MAX_ISD:
        raise AddressError(f"ISD out of range: {value}")
    return value


def parse_asn(text: str) -> int:
    """Parse an AS number in decimal (``64512``) or dotted-hex
    (``ff00:0:110``) notation; raises :class:`AddressError` for
    anything else."""
    match = _HEX_ASN_RE.fullmatch(text)
    if match:
        high, middle, low = (int(part, 16) for part in match.groups())
        return (high << 32) | (middle << 16) | low
    value = decimal_value(text)
    if value is None:
        raise AddressError(f"invalid AS number {text!r}")
    if value > MAX_ASN:
        raise AddressError(f"AS number out of range: {value}")
    return value


def format_asn(asn: int) -> str:
    """Format an AS number; values >= 2^32 use dotted-hex notation."""
    if not 0 <= asn <= MAX_ASN:
        raise AddressError(f"AS number out of range: {asn}")
    if asn < (1 << 32):
        return str(asn)
    return f"{asn >> 32:x}:{(asn >> 16) & 0xFFFF:x}:{asn & 0xFFFF:x}"


@total_ordering
@dataclass(frozen=True)
class IsdAs:
    """An (ISD, AS) identifier.

    Attributes:
        isd: isolation domain number (1..65535; 0 means wildcard).
        asn: AS number (48-bit; 0 means wildcard).
    """

    isd: int
    asn: int

    def __post_init__(self) -> None:
        if not 0 <= self.isd <= MAX_ISD:
            raise AddressError(f"ISD out of range: {self.isd}")
        if not 0 <= self.asn <= MAX_ASN:
            raise AddressError(f"ASN out of range: {self.asn}")
        # Daemon caches, selectors and routers key on ISD-AS per lookup:
        # hash once. The value is the generated hash's, so dict and set
        # order do not change, and an int tuple hashes alike in every
        # process, so a pickled copy may carry it.
        object.__setattr__(self, "_hash", hash((self.isd, self.asn)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls, text: str) -> "IsdAs":
        """Parse ``"isd-asn"``, e.g. ``"1-ff00:0:110"`` or ``"2-64512"``."""
        isd_text, separator, asn_text = text.partition("-")
        if not separator:
            raise AddressError(f"missing '-' in ISD-AS {text!r}")
        return cls(isd=parse_isd(isd_text), asn=parse_asn(asn_text))

    @property
    def is_wildcard(self) -> bool:
        """True when either component is the 0 wildcard."""
        return self.isd == 0 or self.asn == 0

    def matches(self, other: "IsdAs") -> bool:
        """Wildcard-aware match: 0 components match anything.

        Used by the Path Policy Language's ACL entries (paper §4.1).
        """
        isd_ok = self.isd == 0 or other.isd == 0 or self.isd == other.isd
        asn_ok = self.asn == 0 or other.asn == 0 or self.asn == other.asn
        return isd_ok and asn_ok

    def __str__(self) -> str:
        return f"{self.isd}-{format_asn(self.asn)}"

    def __lt__(self, other: "IsdAs") -> bool:
        if not isinstance(other, IsdAs):
            return NotImplemented
        return (self.isd, self.asn) < (other.isd, other.asn)
