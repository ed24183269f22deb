"""HTTP messages and header semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import HttpError
from repro.http.message import (
    STRICT_SCION_HEADER,
    Headers,
    HttpRequest,
    HttpResponse,
)


class TestHeaders:
    def test_case_insensitive_get(self):
        headers = Headers({"Content-Type": "text/html"})
        assert headers.get("content-type") == "text/html"
        assert headers.get("CONTENT-TYPE") == "text/html"

    def test_get_default(self):
        assert Headers().get("missing", "fallback") == "fallback"
        assert Headers().get("missing") is None

    def test_with_header_is_non_destructive(self):
        base = Headers({"A": "1"})
        extended = base.with_header("B", "2")
        assert not base.has("B")
        assert extended.get("B") == "2"
        assert extended.get("A") == "1"

    def test_items_preserve_order(self):
        headers = Headers([("Z", "1"), ("A", "2")])
        assert list(headers.items()) == [("Z", "1"), ("A", "2")]

    def test_wire_bytes_scale_with_content(self):
        small = Headers({"A": "1"})
        large = Headers({"A": "1", "Long-Header-Name": "x" * 100})
        assert large.wire_bytes() > small.wire_bytes()

    def test_first_value_wins_for_duplicates(self):
        headers = Headers([("X", "first"), ("X", "second")])
        assert headers.get("x") == "first"

    @given(st.lists(st.tuples(
        st.text(alphabet=st.characters(min_codepoint=65, max_codepoint=90),
                min_size=1, max_size=10),
        st.text(max_size=20)), max_size=8))
    def test_len_matches_pairs_property(self, pairs):
        assert len(Headers(pairs)) == len(pairs)


class TestRequest:
    def test_url(self):
        request = HttpRequest(method="GET", host="a.example", path="/x")
        assert request.url == "a.example/x"

    def test_invalid_method_rejected(self):
        with pytest.raises(HttpError):
            HttpRequest(method="YOLO", host="a", path="/")

    def test_relative_path_rejected(self):
        with pytest.raises(HttpError):
            HttpRequest(method="GET", host="a", path="x")

    def test_wire_bytes_include_body(self):
        bare = HttpRequest(method="POST", host="a", path="/")
        full = HttpRequest(method="POST", host="a", path="/", body_size=5000)
        assert full.wire_bytes() == bare.wire_bytes() + 5000


class TestResponse:
    def test_ok_range(self):
        assert HttpResponse(status=200).ok
        assert HttpResponse(status=204).ok
        assert not HttpResponse(status=404).ok
        assert not HttpResponse(status=302).ok

    def test_strict_scion_parse(self):
        response = HttpResponse(
            status=200,
            headers=Headers({STRICT_SCION_HEADER: "max-age=3600"}))
        assert response.strict_scion_max_age() == 3600

    def test_strict_scion_with_extra_directives(self):
        response = HttpResponse(
            status=200,
            headers=Headers({STRICT_SCION_HEADER:
                             "includeSubDomains; max-age=60"}))
        assert response.strict_scion_max_age() == 60

    def test_strict_scion_absent(self):
        assert HttpResponse(status=200).strict_scion_max_age() is None

    def test_strict_scion_malformed_ignored(self):
        response = HttpResponse(
            status=200,
            headers=Headers({STRICT_SCION_HEADER: "max-age=banana"}))
        assert response.strict_scion_max_age() is None

    def test_strict_scion_negative_rejected(self):
        response = HttpResponse(
            status=200,
            headers=Headers({STRICT_SCION_HEADER: "max-age=-5"}))
        assert response.strict_scion_max_age() is None

    def test_strict_scion_case_insensitive_header_name(self):
        response = HttpResponse(
            status=200, headers=Headers({"strict-scion": "max-age=9"}))
        assert response.strict_scion_max_age() == 9
