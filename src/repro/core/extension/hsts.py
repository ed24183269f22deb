"""The ``Strict-SCION`` origin store.

"Upon receiving this header, the browser enforces strict mode SCION for
requests to the host from whom the message was received, until the
included max-age expiration. This is similar in spirit to ... HSTS"
(§4.2). The store maps origin hosts to expiry times in simulation time;
entries refresh on every sighting and can be cleared by a ``max-age=0``
header, mirroring HSTS semantics. Like HSTS, which ignores the header
over an insecure transport, the extension feeds it only sightings that
arrived over SCION.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simnet.events import EventLoop
from repro.units import seconds


@dataclass
class StrictScionStore:
    """Per-browser persistent store of strict-SCION origins."""

    loop: EventLoop
    _expiry_ms: dict[str, float] = field(default_factory=dict)
    observations: int = 0

    def observe(self, host: str, max_age_s: int) -> None:
        """Record a ``Strict-SCION: max-age=<n>`` sighting for ``host``.

        ``max_age_s == 0`` removes the entry (the operator opting out),
        exactly like HSTS.
        """
        self.observations += 1
        if max_age_s <= 0:
            self._expiry_ms.pop(host, None)
            return
        self._expiry_ms[host] = self.loop.now + seconds(max_age_s)

    def is_strict(self, host: str) -> bool:
        """True while a non-expired entry exists for ``host``."""
        expiry = self._expiry_ms.get(host)
        if expiry is None:
            return False
        if expiry <= self.loop.now:
            del self._expiry_ms[host]
            return False
        return True

    def active_hosts(self) -> list[str]:
        """All hosts currently pinned to strict mode."""
        return [host for host in list(self._expiry_ms)
                if self.is_strict(host)]

    def clear(self) -> None:
        """Forget everything (e.g. the user clearing site data)."""
        self._expiry_ms.clear()
