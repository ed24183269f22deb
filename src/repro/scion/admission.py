"""Admission control + load shedding for the shared path services.

The paper's architecture moves path lookup out of the browser into
*shared* OS/AS-level services (path daemon, path servers) — which makes
those services shared overload points for every browser on the machine
and every user in an AS. An :class:`AdmissionController` gives each
service a bounded notion of backlog: lookups are counted over a sliding
window, and once the arrival rate exceeds the service's capacity by
more than ``max_queue_depth`` requests, further work is *shed* instead
of queued unboundedly. Callers shed lowest-value work first — serve
stale cached paths where possible, reject with an explicit
``overloaded`` outcome otherwise (see
:meth:`repro.scion.daemon.PathDaemon.paths`).

Control-plane lookups are synchronous in the simulation (zero simulated
time), so "queue depth" is modeled as the sliding-window excess of
arrivals over capacity rather than a literal queue of waiting requests.
The controller is RNG-free and pure arithmetic over the simulated
clock, so admission decisions replay bit-for-bit; with the
``REPRO_ADMISSION`` knob off it keeps no state at all, making knob-off
runs trivially bit-identical to pre-admission behavior.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


#: Environment toggle for admission control in the shared path services.
ADMISSION_ENV = "REPRO_ADMISSION"


@dataclass
class AdmissionStats:
    """Counters describing one service's admission decisions."""

    admitted: int = 0
    #: Requests shed but answered with stale cached data.
    shed_stale: int = 0
    #: Requests shed with an explicit ``overloaded`` rejection.
    shed_rejected: int = 0
    #: Largest backlog (arrivals beyond window capacity) ever observed.
    peak_backlog: int = 0

    def shed_total(self) -> int:
        """All shed requests, regardless of how they degraded."""
        return self.shed_stale + self.shed_rejected


@dataclass
class AdmissionController:
    """Sliding-window admission gate for one shared service.

    Attributes:
        service: label for gauges/counters (``daemon`` | ``path-server``).
        clock: the simulation loop (anything with ``.now`` in ms).
        enabled: explicit override; ``None`` defers to
            ``REPRO_ADMISSION`` (default on).
        capacity_qps: sustained lookup rate the service absorbs without
            shedding.
        window_ms: sliding window over which arrivals are counted.
        max_queue_depth: arrivals beyond window capacity tolerated
            before shedding starts (the bounded queue).
    """

    service: str
    clock: object | None = None
    enabled: bool | None = None
    capacity_qps: float = 200.0
    window_ms: float = 1_000.0
    max_queue_depth: int = 16
    stats: AdmissionStats = field(default_factory=AdmissionStats)
    #: Arrival timestamps (ms) inside the current window.
    _arrivals: deque = field(default_factory=deque)

    def __post_init__(self) -> None:
        # Imported here because the knob parser lives in repro.internet,
        # which imports this module.
        from repro.internet.knobs import resolve_knob
        self.enabled = resolve_knob(ADMISSION_ENV, self.enabled)

    @property
    def _capacity(self) -> float:
        return self.capacity_qps * self.window_ms / 1_000.0

    def backlog(self) -> int:
        """Current queue-depth estimate: windowed arrivals beyond
        capacity (0 when under capacity or disabled)."""
        if not self.enabled:
            return 0
        self._purge()
        return max(0, round(len(self._arrivals) - self._capacity))

    def _purge(self) -> None:
        now = self.clock.now if self.clock is not None else 0.0  # type: ignore[attr-defined]
        cutoff = now - self.window_ms
        arrivals = self._arrivals
        while arrivals and arrivals[0] <= cutoff:
            arrivals.popleft()

    def admit(self) -> bool:
        """Record one arrival and decide whether to serve it fully.

        Disabled controllers admit everything and keep zero state.
        ``False`` means the caller must shed this request (serve stale
        or reject) — it must then report *how* via :meth:`shed`.
        """
        if not self.enabled:
            self.stats.admitted += 1
            return True
        self._purge()
        now = self.clock.now if self.clock is not None else 0.0  # type: ignore[attr-defined]
        self._arrivals.append(now)
        backlog = max(0, round(len(self._arrivals) - self._capacity))
        if backlog > self.stats.peak_backlog:
            self.stats.peak_backlog = backlog
        if backlog <= self.max_queue_depth:
            self.stats.admitted += 1
            return True
        return False

    def shed(self, reason: str) -> None:
        """Account one shed request (``reason``: ``serve-stale`` |
        ``rejected``)."""
        if reason == "serve-stale":
            self.stats.shed_stale += 1
        elif reason == "rejected":
            self.stats.shed_rejected += 1
        else:
            raise ValueError(f"unknown shed reason {reason!r}")
