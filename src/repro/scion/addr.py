"""SCION end-host addressing.

A SCION address combines the ISD-AS identifier with an AS-local host
address (paper §4.3: "a combination of SCION ISD, AS and local IPv4/6
address"). In the simulator, host addresses are symbolic names; the same
:class:`HostAddr` type addresses hosts for legacy IP traffic too, so the
proxy can switch transports without re-resolving.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AddressError
from repro.topology.isd_as import IsdAs


@dataclass(frozen=True, order=True)
class HostAddr:
    """A fully-qualified end-host address: ISD-AS plus local host id."""

    isd_as: IsdAs
    host: str

    def __post_init__(self) -> None:
        if not self.host:
            raise AddressError("empty host component")
        # Sockets and listeners look addresses up per datagram: hash once.
        object.__setattr__(self, "_hash", hash((self.isd_as, self.host)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild from the fields, so the cached hash is recomputed: a
        # ``str`` hashes differently in every process (PYTHONHASHSEED),
        # and a pickled hash would miss every dict in a spawned worker.
        return (type(self), (self.isd_as, self.host))

    @classmethod
    def parse(cls, text: str) -> "HostAddr":
        """Parse ``"isd-asn,host"``, e.g. ``"1-ff00:0:110,10.0.0.1"``."""
        isd_as_text, separator, host = text.partition(",")
        if not separator or not host:
            raise AddressError(f"missing ',host' in SCION address {text!r}")
        return cls(isd_as=IsdAs.parse(isd_as_text), host=host)

    def __str__(self) -> str:
        return f"{self.isd_as},{self.host}"
