"""Cross-layer observability: spans, metrics, waterfalls, artifacts.

The paper promises that "statistics on path usage and performance of
particular paths are provided as feedback to users" (§4); this package
is that feedback layer for the simulated stack. One :class:`Tracer` per
world records what each browser request *did* — extension interception,
SKIP proxy decisions, DNS, path lookup, QUIC handshakes, HTTP exchanges
— as simulated-clock span trees. Counts are not recorded a second time:
every component keeps its own (the ``*Stats`` records), and
:func:`observe` reads a world — records, spans, links — into one
:class:`MetricsRegistry` when somebody asks. :mod:`repro.obs.waterfall`
turns one page load's spans into a devtools-style waterfall whose
:class:`PltBreakdown` sums exactly to the measured PLT, and
:mod:`repro.obs.export` writes/diffs the JSON artifacts.

Tracing is off by default everywhere: instrumented components carry the
shared :data:`NULL_TRACER`, so untraced runs pay (near) nothing and stay
bit-identical to pre-instrumentation behaviour. Enable it per world::

    world = build_local_world(page, seed, obs=True)
    load_once(world)
    waterfall = assemble_waterfall(world.tracer)

or via ``python -m repro.experiments.run_all --obs`` /
``python -m repro.obs trace``.
"""

from repro.obs.export import (
    ARTIFACT_VERSION,
    artifact_digest,
    build_artifact,
    diff_report,
    load_artifact,
    render_report,
    write_artifact,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    observe,
)
from repro.obs.spans import (
    NULL_SPAN,
    NULL_TRACER,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OPEN,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
)
from repro.obs.waterfall import (
    PltBreakdown,
    Segment,
    Waterfall,
    WaterfallRow,
    assemble_waterfall,
    breakdown_from_spans,
    waterfall_from_dict,
)

__all__ = [
    "ARTIFACT_VERSION",
    "artifact_digest",
    "build_artifact",
    "diff_report",
    "load_artifact",
    "render_report",
    "write_artifact",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "observe",
    "NULL_SPAN",
    "NULL_TRACER",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_OPEN",
    "NullTracer",
    "Span",
    "SpanEvent",
    "Tracer",
    "PltBreakdown",
    "Segment",
    "Waterfall",
    "WaterfallRow",
    "assemble_waterfall",
    "breakdown_from_spans",
    "waterfall_from_dict",
]
