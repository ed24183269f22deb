"""Trace/metric artifacts on disk, and run-to-run diff reports.

An *artifact* is one JSON document holding everything a traced run
recorded: the span tree, the metrics snapshot, and the assembled
waterfall of every completed page load. ``run_all --obs`` writes one per
figure under ``results/obs/``; ``python -m repro.obs diff`` turns two of
them into a text report of what moved.

Artifacts are a pure function of (entry, cell, seed) — sorted keys, no
timestamps — except for the ``process`` block: what this *process* had
cached when it built the world, which depends on what it ran before.
:func:`artifact_digest` and :func:`diff_report` skip that block, so two
runs of the same world digest and diff the same from any process.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.waterfall import assemble_waterfall, waterfall_from_dict

#: Current artifact schema version.
ARTIFACT_VERSION = 1


def build_artifact(tracer: Any, metrics: MetricsRegistry,
                   label: str = "trace",
                   extra: dict[str, Any] | None = None) -> dict[str, Any]:
    """Everything one traced run recorded, as a JSON-ready dict.

    ``metrics`` is the world's :func:`~repro.obs.metrics.observe`
    snapshot. Every completed ``page.load`` in the trace contributes a
    waterfall; loads still open when the artifact is built are skipped
    (their spans are present regardless). The control-plane
    snapshot-cache counters are cumulative over the process, not the
    world, so they go under ``process`` (see the module docstring).
    """
    from repro.internet import snapshot

    spans = [span.to_dict() for span in tracer.spans]
    waterfalls = []
    n_pages = sum(1 for span in spans if span["name"] == "page.load")
    for index in range(n_pages):
        try:
            waterfalls.append(assemble_waterfall(spans, index).to_dict())
        except ReproError:
            continue  # load still in flight (or main document missing)
    return {
        "version": ARTIFACT_VERSION,
        "label": label,
        "spans": spans,
        "metrics": metrics.snapshot(),
        "waterfalls": waterfalls,
        "extra": dict(extra or {}),
        "process": {"snapshot_cache": {**snapshot.stats.as_dict(),
                                       "size": snapshot.cache_size()}},
    }


def artifact_digest(artifact: dict[str, Any]) -> str:
    """sha256 of everything in an artifact that replays (all of it but
    the ``process`` block)."""
    replayed = {key: value for key, value in artifact.items()
                if key != "process"}
    return hashlib.sha256(
        json.dumps(replayed, sort_keys=True).encode()).hexdigest()


def write_artifact(path: str | pathlib.Path,
                   artifact: dict[str, Any]) -> pathlib.Path:
    """Write one artifact as stable (sorted, indented) JSON."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: str | pathlib.Path) -> dict[str, Any]:
    """Read an artifact back; raises :class:`ReproError` on junk."""
    try:
        artifact = json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as error:
        raise ReproError(f"cannot read obs artifact {path}: {error}") \
            from error
    if not isinstance(artifact, dict) or "spans" not in artifact:
        raise ReproError(f"{path} is not an obs artifact")
    return artifact


def render_report(artifact: dict[str, Any]) -> str:
    """One artifact as a human-readable report."""
    lines = [f"== obs report: {artifact.get('label', '?')} =="]
    for data in artifact.get("waterfalls", []):
        lines.append("")
        lines.append(waterfall_from_dict(data).render())
    metrics = artifact.get("metrics", {})
    lines.append("")
    lines.append("-- metrics --")
    for kind in ("counters", "gauges"):
        for key, value in metrics.get(kind, {}).items():
            lines.append(f"{key} {value:g}")
    for key, hist in metrics.get("histograms", {}).items():
        count = hist.get("count", 0)
        mean = hist.get("sum", 0.0) / count if count else 0.0
        lines.append(f"{key} n={count} mean={mean:.2f}")
    for name, numbers in artifact.get("process", {}).items():
        lines.append(f"-- process: {name} (outside the digest) --")
        lines.extend(f"{key} {value:g}" for key, value in numbers.items())
    return "\n".join(lines)


# -- OTLP export --------------------------------------------------------------

#: Span status -> OTLP status code (open spans stay UNSET).
_OTLP_STATUS = {"ok": "STATUS_CODE_OK", "error": "STATUS_CODE_ERROR"}


def _otlp_value(value: Any) -> dict[str, Any]:
    """One attribute value in OTLP's tagged-union JSON encoding."""
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}  # OTLP/JSON carries int64 as string
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _otlp_attributes(attributes: dict[str, Any]) -> list[dict[str, Any]]:
    return [{"key": key, "value": _otlp_value(value)}
            for key, value in attributes.items()]


def _otlp_span_id(span_id: int | None) -> str:
    # OTLP forbids the all-zero span id, so shift our 0-based ids by one.
    return "" if span_id is None else f"{span_id + 1:016x}"


def to_otlp(artifact: dict[str, Any]) -> dict[str, Any]:
    """One obs artifact as an OTLP/JSON ``ExportTraceServiceRequest``.

    The mapping is lossless for spans: simulated milliseconds become
    nanoseconds since an epoch of 0, the artifact label hashes to the
    (deterministic) trace id, and span ids are the tracer's creation
    ordinals shifted by one (OTLP forbids all-zero ids). Metrics and
    waterfalls are artifact-only and do not travel.
    """
    label = str(artifact.get("label", "trace"))
    trace_id = hashlib.sha256(label.encode()).hexdigest()[:32]
    spans = []
    for span in artifact.get("spans", []):
        end_ms = span["end_ms"] if span["end_ms"] is not None \
            else span["start_ms"]
        otlp: dict[str, Any] = {
            "traceId": trace_id,
            "spanId": _otlp_span_id(span["span_id"]),
            "parentSpanId": _otlp_span_id(span["parent_id"]),
            "name": span["name"],
            "kind": "SPAN_KIND_INTERNAL",
            "startTimeUnixNano": str(int(span["start_ms"] * 1e6)),
            "endTimeUnixNano": str(int(end_ms * 1e6)),
            "attributes": _otlp_attributes(span["attributes"]),
            "status": {},
        }
        code = _OTLP_STATUS.get(span["status"])
        if code is not None:
            otlp["status"] = {"code": code}
        if span["events"]:
            otlp["events"] = [
                {"name": event["name"],
                 "timeUnixNano": str(int(event["time_ms"] * 1e6)),
                 "attributes": _otlp_attributes(event["attributes"])}
                for event in span["events"]]
        spans.append(otlp)
    return {
        "resourceSpans": [{
            "resource": {"attributes": _otlp_attributes(
                {"service.name": "repro", "repro.label": label})},
            "scopeSpans": [{
                "scope": {"name": "repro.obs"},
                "spans": spans,
            }],
        }],
    }


def _mean_plt(artifact: dict[str, Any]) -> float:
    plts = [w["breakdown"]["plt_ms"] for w in artifact.get("waterfalls", [])]
    return sum(plts) / len(plts) if plts else 0.0


def _scalar_diff(lines: list[str], kind: str, a: dict[str, Any],
                 b: dict[str, Any]) -> None:
    before = a.get("metrics", {}).get(kind, {})
    after = b.get("metrics", {}).get(kind, {})
    for key in sorted(set(before) | set(after)):
        old, new = before.get(key), after.get(key)
        if old == new:
            continue
        old_s = f"{old:g}" if old is not None else "-"
        new_s = f"{new:g}" if new is not None else "-"
        lines.append(f"  {key}: {old_s} -> {new_s}")


def diff_report(a: dict[str, Any], b: dict[str, Any]) -> str:
    """What changed between two artifacts — PLTs, counters, histograms."""
    lines = [
        f"== obs diff: {a.get('label', 'A')} -> {b.get('label', 'B')} ==",
        (f"page loads: {len(a.get('waterfalls', []))} -> "
         f"{len(b.get('waterfalls', []))}; mean PLT "
         f"{_mean_plt(a):.1f} ms -> {_mean_plt(b):.1f} ms"),
    ]
    changed = len(lines)
    lines.append("counters/gauges:")
    _scalar_diff(lines, "counters", a, b)
    _scalar_diff(lines, "gauges", a, b)
    if lines[-1] == "counters/gauges:":
        lines.pop()
    lines.append("histograms:")
    before = a.get("metrics", {}).get("histograms", {})
    after = b.get("metrics", {}).get("histograms", {})
    for key in sorted(set(before) | set(after)):
        old, new = before.get(key), after.get(key)
        if old == new:
            continue

        def stats(hist):
            if hist is None:
                return "-"
            count = hist.get("count", 0)
            mean = hist.get("sum", 0.0) / count if count else 0.0
            return f"n={count} mean={mean:.2f}"

        lines.append(f"  {key}: {stats(old)} -> {stats(new)}")
    if lines[-1] == "histograms:":
        lines.pop()
    if len(lines) == changed:
        lines.append("(no metric differences)")
    return "\n".join(lines)
