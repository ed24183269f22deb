"""Devtools-style waterfalls and the PLT breakdown.

Turns the span tree of one page load into the two artifacts a user (or
a test) can actually reason about:

* a :class:`Waterfall` — one row per fetched object, each carrying the
  per-layer segments (extension interception, DNS, path lookup, QUIC
  handshake, HTTP exchange) extracted from the row's span subtree, and
* a :class:`PltBreakdown` — the *exact* decomposition of the measured
  PLT into the engine's three contiguous phases: main-document fetch,
  parse delay, and the subresource fan-out. Because the phases tile the
  ``page.load`` span, their sum equals the PLT to float precision;
  :meth:`PltBreakdown.check` enforces it (±1 event-loop tick of
  tolerance), which is the acceptance gate for the whole subsystem —
  a waterfall that cannot explain its own PLT is decoration, not
  observability.

Everything here works on plain span mappings (``Span.to_dict`` shape),
so a waterfall can be assembled live from a :class:`~repro.obs.spans.Tracer`
or offline from an exported JSON artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import ReproError

#: Default tolerance for :meth:`PltBreakdown.check`: one event-loop
#: "tick" — the loop is continuous-time, so this is float-rounding slack,
#: not a quantum.
PLT_TOLERANCE_MS = 1e-6

#: Span names that become labelled segments on a waterfall row, in
#: render order.
SEGMENT_SPANS = ("extension.intercept", "proxy.fetch", "dns.resolve",
                 "path.lookup", "quic.handshake", "http.request")


def _as_dicts(spans: Iterable[Any]) -> list[dict[str, Any]]:
    """Accept Span objects or their dict form interchangeably."""
    out = []
    for span in spans:
        out.append(span if isinstance(span, dict) else span.to_dict())
    return out


@dataclass(frozen=True)
class Segment:
    """One labelled interval inside a waterfall row."""

    label: str
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class WaterfallRow:
    """One fetched object: when it ran and what its time went into."""

    url: str
    main: bool
    start_ms: float
    end_ms: float
    status: str
    segments: tuple[Segment, ...]

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class PltBreakdown:
    """The measured PLT split into the engine's contiguous phases.

    ``main_document_ms + parse_ms + subresources_ms == plt_ms`` — the
    phases tile the page span, so this is an identity, not an estimate.
    A failed load (main document blocked) has zero parse/subresource
    phases.
    """

    plt_ms: float
    main_document_ms: float
    parse_ms: float
    subresources_ms: float
    failed: bool

    def components(self) -> dict[str, float]:
        """The summable phase components."""
        return {
            "main_document_ms": self.main_document_ms,
            "parse_ms": self.parse_ms,
            "subresources_ms": self.subresources_ms,
        }

    @property
    def component_sum_ms(self) -> float:
        return (self.main_document_ms + self.parse_ms
                + self.subresources_ms)

    def check(self, plt_ms: float | None = None,
              tolerance_ms: float = PLT_TOLERANCE_MS) -> None:
        """Assert the components sum to the (given or recorded) PLT.

        Raises :class:`~repro.errors.ReproError` on mismatch — the
        waterfall then does not explain the number it claims to explain.
        """
        target = self.plt_ms if plt_ms is None else plt_ms
        if abs(self.component_sum_ms - target) > tolerance_ms:
            raise ReproError(
                f"PLT breakdown does not sum: "
                f"{self.component_sum_ms!r} != {target!r} "
                f"(tolerance {tolerance_ms} ms)")

    def to_dict(self) -> dict[str, Any]:
        return {
            "plt_ms": self.plt_ms,
            "main_document_ms": self.main_document_ms,
            "parse_ms": self.parse_ms,
            "subresources_ms": self.subresources_ms,
            "failed": self.failed,
        }


@dataclass
class Waterfall:
    """One page load, ready to render or export."""

    page: str
    start_ms: float
    end_ms: float
    breakdown: PltBreakdown
    rows: list[WaterfallRow] = field(default_factory=list)

    @property
    def plt_ms(self) -> float:
        return self.breakdown.plt_ms

    def to_dict(self) -> dict[str, Any]:
        return {
            "page": self.page,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "breakdown": self.breakdown.to_dict(),
            "rows": [{
                "url": row.url,
                "main": row.main,
                "start_ms": row.start_ms,
                "end_ms": row.end_ms,
                "status": row.status,
                "segments": [{"label": seg.label, "start_ms": seg.start_ms,
                              "end_ms": seg.end_ms}
                             for seg in row.segments],
            } for row in self.rows],
        }

    def render(self, width: int = 64) -> str:
        """Text waterfall: one bar per object against the page timeline."""
        span_ms = max(self.end_ms - self.start_ms, 1e-9)
        lines = [
            f"== waterfall: {self.page} ==",
            (f"PLT {self.breakdown.plt_ms:.1f} ms = main "
             f"{self.breakdown.main_document_ms:.1f} + parse "
             f"{self.breakdown.parse_ms:.1f} + subresources "
             f"{self.breakdown.subresources_ms:.1f}"
             + ("  [FAILED]" if self.breakdown.failed else "")),
            "",
        ]
        for row in self.rows:
            left = int((row.start_ms - self.start_ms) / span_ms * width)
            bar = max(1, int(row.duration_ms / span_ms * width))
            flags = "M" if row.main else " "
            marker = "x" if row.status == "error" else "#"
            lines.append(f"{row.url[:28]:<28} {flags:<2} "
                         f"|{' ' * left}{marker * bar}"
                         f"{' ' * max(0, width - left - bar)}| "
                         f"{row.duration_ms:8.1f} ms")
            detail = "  ".join(
                f"{seg.label.split('.')[-1]}={seg.duration_ms:.1f}"
                for seg in row.segments if seg.label != "proxy.fetch")
            if detail:
                lines.append(f"{'':<28}    {detail}")
        return "\n".join(lines)


def waterfall_from_dict(data: dict[str, Any]) -> Waterfall:
    """Rebuild a :class:`Waterfall` from its :meth:`Waterfall.to_dict`
    form (the shape stored in exported artifacts)."""
    breakdown = data["breakdown"]
    return Waterfall(
        page=data["page"],
        start_ms=data["start_ms"],
        end_ms=data["end_ms"],
        breakdown=PltBreakdown(
            plt_ms=breakdown["plt_ms"],
            main_document_ms=breakdown["main_document_ms"],
            parse_ms=breakdown["parse_ms"],
            subresources_ms=breakdown["subresources_ms"],
            failed=breakdown["failed"],
        ),
        rows=[WaterfallRow(
            url=row["url"],
            main=row["main"],
            start_ms=row["start_ms"],
            end_ms=row["end_ms"],
            status=row["status"],
            segments=tuple(Segment(label=seg["label"],
                                   start_ms=seg["start_ms"],
                                   end_ms=seg["end_ms"])
                           for seg in row["segments"]),
        ) for row in data["rows"]],
    )


def _index(spans: list[dict[str, Any]]):
    children: dict[int | None, list[dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    return children


def _subtree(span: dict[str, Any], children) -> list[dict[str, Any]]:
    collected = []
    stack = [span]
    while stack:
        node = stack.pop()
        collected.append(node)
        stack.extend(children.get(node["span_id"], ()))
    return collected


def _row_from_fetch(fetch: dict[str, Any], children) -> WaterfallRow:
    segments = []
    for node in _subtree(fetch, children):
        if node is fetch or node["name"] not in SEGMENT_SPANS:
            continue
        if node.get("end_ms") is None:
            continue
        segments.append(Segment(label=node["name"],
                                start_ms=node["start_ms"],
                                end_ms=node["end_ms"]))
    segments.sort(key=lambda seg: (seg.start_ms,
                                   SEGMENT_SPANS.index(seg.label)))
    attrs = fetch.get("attributes", {})
    return WaterfallRow(
        url=str(attrs.get("url", "?")),
        main=bool(attrs.get("main", False)),
        start_ms=fetch["start_ms"],
        end_ms=fetch["end_ms"] if fetch.get("end_ms") is not None
        else fetch["start_ms"],
        status=fetch.get("status", "open"),
        segments=tuple(segments),
    )


def breakdown_from_spans(page_span: dict[str, Any],
                         children) -> PltBreakdown:
    """The phase decomposition of one ``page.load`` span."""
    if page_span.get("end_ms") is None:
        raise ReproError("page.load span never ended; cannot decompose PLT")
    start, end = page_span["start_ms"], page_span["end_ms"]
    plt_ms = end - start
    failed = bool(page_span.get("attributes", {}).get("failed", False))
    kids = children.get(page_span["span_id"], [])
    main = next((s for s in kids if s["name"] == "browser.fetch"
                 and s.get("attributes", {}).get("main")), None)
    if main is None or main.get("end_ms") is None:
        raise ReproError("page.load has no completed main-document fetch")
    main_ms = main["end_ms"] - main["start_ms"]
    parse = next((s for s in kids if s["name"] == "browser.parse"), None)
    if failed or parse is None:
        # A blocked main document is the whole load; any residue (there
        # should be none) is attributed to the main phase so the
        # identity still holds.
        return PltBreakdown(plt_ms=plt_ms, main_document_ms=plt_ms,
                            parse_ms=0.0, subresources_ms=0.0,
                            failed=failed)
    parse_ms = parse["end_ms"] - parse["start_ms"]
    # The subresource phase runs from parse end to page end; with no
    # subresources it has zero length. Defined as the remainder, the
    # three phases tile [start, end] exactly.
    subresources_ms = end - parse["end_ms"]
    return PltBreakdown(plt_ms=plt_ms, main_document_ms=main_ms,
                        parse_ms=parse_ms, subresources_ms=subresources_ms,
                        failed=False)


def assemble_waterfall(trace: Any, page_index: int = 0) -> Waterfall:
    """Build the waterfall of one page load.

    ``trace`` is a :class:`~repro.obs.spans.Tracer`, a list of spans, or
    a list of span dicts; ``page_index`` selects among multiple
    ``page.load`` roots (a browsing session records one per load).
    """
    spans = _as_dicts(trace.spans if hasattr(trace, "spans") else trace)
    pages = [span for span in spans if span["name"] == "page.load"]
    if not pages:
        raise ReproError("trace contains no page.load span")
    try:
        page_span = pages[page_index]
    except IndexError:
        raise ReproError(
            f"trace has {len(pages)} page loads, no index {page_index}")
    children = _index(spans)
    breakdown = breakdown_from_spans(page_span, children)
    rows = [
        _row_from_fetch(fetch, children)
        for fetch in children.get(page_span["span_id"], [])
        if fetch["name"] == "browser.fetch" and fetch.get("end_ms") is not None
    ]
    rows.sort(key=lambda row: (row.start_ms, not row.main, row.url))
    return Waterfall(
        page=str(page_span.get("attributes", {}).get("host", "?")),
        start_ms=page_span["start_ms"],
        end_ms=page_span["end_ms"],
        breakdown=breakdown,
        rows=rows,
    )
