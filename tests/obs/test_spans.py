"""The span layer: simulated-clock stamps, explicit parenting, nullness."""

import pytest

from repro.obs.spans import (NULL_SPAN, NULL_TRACER, STATUS_ERROR, STATUS_OK,
                             STATUS_OPEN, Tracer)
from repro.simnet.events import EventLoop


def make_tracer():
    return Tracer(EventLoop())


class TestSpanLifecycle:
    def test_span_stamps_simulated_time(self):
        tracer = make_tracer()
        span = tracer.span("op")
        tracer.loop.run(until=5.0)
        span.end()
        assert span.start_ms == 0.0
        assert span.end_ms == 5.0
        assert span.duration_ms == 5.0
        assert span.status == STATUS_OK

    def test_open_span_reports_open(self):
        tracer = make_tracer()
        span = tracer.span("op")
        assert not span.ended
        assert span.status == STATUS_OPEN
        assert span.duration_ms == 0.0
        assert tracer.open_spans() == [span]

    def test_end_is_idempotent(self):
        tracer = make_tracer()
        span = tracer.span("op")
        span.end()
        tracer.loop.run(until=9.0)
        span.end(STATUS_ERROR)  # too late: first end wins
        assert span.end_ms == 0.0
        assert span.status == STATUS_OK

    def test_context_manager_marks_errors(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("op") as span:
                raise ValueError("boom")
        assert span.status == STATUS_ERROR
        assert span.attributes["error"] == "ValueError"

    def test_events_stamped_with_loop_time(self):
        tracer = make_tracer()
        span = tracer.span("op")
        tracer.loop.run(until=3.0)
        span.event("retry", attempt=1)
        assert span.events[0].time_ms == 3.0
        assert span.events[0].attributes == {"attempt": 1}


class TestParenting:
    def test_explicit_parent_links_ids(self):
        tracer = make_tracer()
        parent = tracer.span("page.load")
        child = tracer.span("browser.fetch", parent=parent)
        assert child.parent_id == parent.span_id
        assert tracer.children_of(parent) == [child]
        assert tracer.roots() == [parent]

    def test_null_span_parent_means_root(self):
        tracer = make_tracer()
        span = tracer.span("op", parent=NULL_SPAN)
        assert span.parent_id is None

    def test_span_ids_sequential_and_deterministic(self):
        names = [make_tracer().span(f"s{i}").span_id for i in range(3)]
        assert names == [1, 1, 1]
        tracer = make_tracer()
        assert [tracer.span("a").span_id, tracer.span("b").span_id] == [1, 2]


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.span("anything", parent=None, k="v")
        assert span is NULL_SPAN
        assert span.set(x=1) is span
        assert span.event("e") is span
        assert span.end() is span
        assert NULL_TRACER.spans == []

    def test_null_span_usable_as_context_manager(self):
        with NULL_SPAN as span:
            assert span is NULL_SPAN


class TestToDict:
    def test_round_trip_shape(self):
        tracer = make_tracer()
        span = tracer.span("op", host="x.example")
        span.event("retry", attempt=2)
        tracer.loop.run(until=1.5)
        span.end()
        data = span.to_dict()
        assert data["name"] == "op"
        assert data["attributes"] == {"host": "x.example"}
        assert data["events"] == [{"name": "retry", "time_ms": 0.0,
                                   "attributes": {"attempt": 2}}]
        assert data["end_ms"] == 1.5
