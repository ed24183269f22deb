"""Hierarchical spans over simulated time.

The tracing layer the paper's §4 feedback promise rides on: a
:class:`Tracer` records what one browser request *did* — which layers it
crossed (extension, proxy, DNS, path lookup, QUIC, HTTP) and when — as a
tree of :class:`Span` objects stamped with the world's simulated clock.

Design constraints, both test-enforced:

* **Deterministic and inert.** Recording a span never schedules an
  event, never draws from any RNG, and never reads wall-clock time, so a
  traced trial produces bit-identical measurements to an untraced one.
  Span ids are sequential per tracer; timestamps come from
  ``loop.now``.
* **Near-zero overhead when disabled.** Every instrumented component
  defaults to the shared :data:`NULL_TRACER`, whose ``span()`` returns
  the shared :data:`NULL_SPAN`; all of its methods are no-ops and
  allocate nothing, and ``tracer.enabled`` lets a site skip even the
  call. Enabled, a span is an object, a kwargs dict and a list append
  (README "Observability" states the measured ratio). A tracer carries
  no counts — see :func:`repro.obs.metrics.observe`.

Spans nest by *explicit* parenting (``tracer.span("x", parent=span)``):
the simulation interleaves many generator processes on one thread, so an
implicit "current span" would attribute work to the wrong request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Span status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"
#: Status of a span still in flight (never ended).
STATUS_OPEN = "open"


@dataclass(frozen=True, slots=True)
class SpanEvent:
    """A point-in-time annotation inside a span (retry, fallback, ...)."""

    name: str
    time_ms: float
    attributes: dict[str, Any]


class Span:
    """One timed operation in the trace tree."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "start_ms",
                 "end_ms", "status", "attributes", "events")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: int | None, start_ms: float,
                 attributes: dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ms = start_ms
        self.end_ms: float | None = None
        self.status = STATUS_OPEN
        self.attributes = attributes
        self.events: list[SpanEvent] = []

    @property
    def ended(self) -> bool:
        """True once :meth:`end` ran."""
        return self.end_ms is not None

    @property
    def duration_ms(self) -> float:
        """Span length in simulated ms (0.0 while still open)."""
        return 0.0 if self.end_ms is None else self.end_ms - self.start_ms

    def set(self, **attributes: Any) -> "Span":
        """Attach or overwrite attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def event(self, name: str, **attributes: Any) -> "Span":
        """Record a point-in-time event at the current simulated time."""
        self.events.append(SpanEvent(name=name,
                                     time_ms=self.tracer.loop.now,
                                     attributes=attributes))
        return self

    def end(self, status: str = STATUS_OK) -> "Span":
        """Close the span at the current simulated time (idempotent)."""
        if self.end_ms is None:
            self.end_ms = self.tracer.loop.now
            self.status = status
        return self

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.set(error=exc_type.__name__)
            self.end(STATUS_ERROR)
        else:
            self.end()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (see :mod:`repro.obs.export`)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "status": self.status,
            "attributes": dict(self.attributes),
            "events": [{"name": event.name, "time_ms": event.time_ms,
                        "attributes": dict(event.attributes)}
                       for event in self.events],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, {self.start_ms:.3f}.."
                f"{self.end_ms if self.end_ms is not None else '...'})")


class _NullSpan:
    """The do-nothing span every disabled call site receives."""

    __slots__ = ()

    span_id = None
    parent_id = None
    name = ""
    status = STATUS_OK
    start_ms = 0.0
    end_ms = 0.0
    duration_ms = 0.0
    ended = True
    attributes: dict[str, Any] = {}
    events: list[SpanEvent] = []

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def event(self, name: str, **attributes: Any) -> "_NullSpan":
        return self

    def end(self, status: str = STATUS_OK) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: The shared inert span.
NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: records nothing, costs (almost) nothing."""

    __slots__ = ()

    enabled = False
    spans: list[Span] = []

    def span(self, name: str, parent: Any = None,
             **attributes: Any) -> _NullSpan:
        """Return the shared inert span."""
        return NULL_SPAN


#: The shared disabled tracer every component defaults to.
NULL_TRACER = NullTracer()


class Tracer:
    """Records spans against one world's simulated clock.

    Spans are kept in creation order (deterministic for a given seed).
    """

    enabled = True

    def __init__(self, loop) -> None:
        self.loop = loop
        self.spans: list[Span] = []
        self._next_id = 1

    def span(self, name: str, parent: Span | _NullSpan | None = None,
             **attributes: Any) -> Span:
        """Open a new span starting now; ``parent`` nests it."""
        parent_id = getattr(parent, "span_id", None)
        span = Span(self, name, self._next_id, parent_id,
                    self.loop.now, attributes)
        self._next_id += 1
        self.spans.append(span)
        return span

    # -- queries ------------------------------------------------------------

    def spans_named(self, name: str) -> list[Span]:
        """All spans with the given name, in creation order."""
        return [span for span in self.spans if span.name == name]

    def children_of(self, parent: Span) -> list[Span]:
        """Direct children of ``parent``, in creation order."""
        return [span for span in self.spans
                if span.parent_id == parent.span_id]

    def open_spans(self) -> list[Span]:
        """Spans never ended — each one is a leaked operation."""
        return [span for span in self.spans if span.end_ms is None]

    def roots(self) -> list[Span]:
        """Spans without a parent (page loads, usually)."""
        return [span for span in self.spans if span.parent_id is None]
