"""OTLP/JSON span export: shape, determinism, and id rules."""

import json

from repro.obs.export import build_artifact, to_otlp
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import STATUS_ERROR, Tracer
from repro.simnet.events import EventLoop


def small_artifact(label="otlp-test"):
    loop = EventLoop()
    tracer = Tracer(loop)
    root = tracer.span("page.load", host="a.example", n_resources=2,
                       warm=True)
    child = tracer.span("http.request", parent=root, via="scion",
                        attempt=1, rtt_ms=12.5)
    child.event("retry", attempt=2)
    loop.run(until=5.0)
    child.end()
    failed = tracer.span("http.request", parent=root, via="ip")
    loop.run(until=7.0)
    failed.end(STATUS_ERROR)
    loop.run(until=9.0)
    root.end()
    return build_artifact(tracer, MetricsRegistry(), label=label)


class TestOtlpShape:
    def test_wraps_resource_and_scope(self):
        otlp = to_otlp(small_artifact())
        resource_spans = otlp["resourceSpans"]
        assert len(resource_spans) == 1
        attrs = {a["key"]: a["value"]
                 for a in resource_spans[0]["resource"]["attributes"]}
        assert attrs["service.name"] == {"stringValue": "repro"}
        assert attrs["repro.label"] == {"stringValue": "otlp-test"}
        scope = resource_spans[0]["scopeSpans"][0]
        assert scope["scope"]["name"] == "repro.obs"
        assert len(scope["spans"]) == 3

    def test_ids_are_valid_hex_and_linked(self):
        spans = to_otlp(small_artifact())["resourceSpans"][0][
            "scopeSpans"][0]["spans"]
        by_name = {s["name"]: s for s in spans}
        root = by_name["page.load"]
        assert len(root["traceId"]) == 32
        assert len(root["spanId"]) == 16
        assert root["spanId"] != "0" * 16  # OTLP forbids all-zero ids
        assert root["parentSpanId"] == ""
        children = [s for s in spans if s["name"] == "http.request"]
        assert all(s["parentSpanId"] == root["spanId"] for s in children)
        assert all(s["traceId"] == root["traceId"] for s in spans)
        assert len({s["spanId"] for s in spans}) == 3

    def test_times_are_nanosecond_strings(self):
        spans = to_otlp(small_artifact())["resourceSpans"][0][
            "scopeSpans"][0]["spans"]
        root = next(s for s in spans if s["name"] == "page.load")
        assert root["startTimeUnixNano"] == "0"
        assert root["endTimeUnixNano"] == str(int(9.0 * 1e6))

    def test_status_codes(self):
        spans = to_otlp(small_artifact())["resourceSpans"][0][
            "scopeSpans"][0]["spans"]
        codes = sorted(s["status"].get("code", "UNSET") for s in spans)
        assert codes == ["STATUS_CODE_ERROR", "STATUS_CODE_OK",
                         "STATUS_CODE_OK"]

    def test_attribute_types(self):
        spans = to_otlp(small_artifact())["resourceSpans"][0][
            "scopeSpans"][0]["spans"]
        root = next(s for s in spans if s["name"] == "page.load")
        attrs = {a["key"]: a["value"] for a in root["attributes"]}
        assert attrs["host"] == {"stringValue": "a.example"}
        assert attrs["n_resources"] == {"intValue": "2"}
        assert attrs["warm"] == {"boolValue": True}
        scion = next(s for s in spans if s["name"] == "http.request"
                     and s.get("events"))
        scion_attrs = {a["key"]: a["value"] for a in scion["attributes"]}
        assert scion_attrs["rtt_ms"] == {"doubleValue": 12.5}

    def test_events_carry_time_and_attributes(self):
        spans = to_otlp(small_artifact())["resourceSpans"][0][
            "scopeSpans"][0]["spans"]
        with_events = [s for s in spans if s.get("events")]
        assert len(with_events) == 1
        event = with_events[0]["events"][0]
        assert event["name"] == "retry"
        assert event["timeUnixNano"] == "0"
        assert {"key": "attempt", "value": {"intValue": "2"}} \
            in event["attributes"]


class TestOtlpDeterminism:
    def test_same_artifact_same_document(self):
        a = json.dumps(to_otlp(small_artifact()), sort_keys=True)
        b = json.dumps(to_otlp(small_artifact()), sort_keys=True)
        assert a == b

    def test_trace_id_tracks_the_label(self):
        a = to_otlp(small_artifact("run-a"))
        b = to_otlp(small_artifact("run-b"))
        span_a = a["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        span_b = b["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        assert span_a["traceId"] != span_b["traceId"]

    def test_json_serializable(self):
        json.dumps(to_otlp(small_artifact()))
