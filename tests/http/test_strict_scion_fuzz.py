"""Fuzzing the ``Strict-SCION`` directive parser.

``HttpResponse.strict_scion_max_age`` / ``strict_scion_address`` read a
memo of the parsed header value. Whatever a peer sends, they must agree
with the straightforward per-call parsers kept below as the reference
(first ``max-age=`` decides, first ``addr=`` decides, malformed gives
None), never raise, and answer only None, an int >= 0 or a
:class:`HostAddr`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.http import message
from repro.http.message import (
    STRICT_SCION_HEADER,
    STRICT_SCION_MEMO_SIZE,
    Headers,
    HttpResponse,
)
from repro.scion.addr import HostAddr


def reference_max_age(value: str) -> int | None:
    for part in value.split(";"):
        part = part.strip()
        if part.startswith("max-age="):
            digits = part[len("max-age="):]
            # One to twenty ASCII digits, the rule IsdAs.parse reads a
            # number by: no sign, no ``_``, no whitespace, no other script.
            if 0 < len(digits) <= 20 and set(digits) <= set("0123456789"):
                return int(digits)
            return None
    return None


def reference_address(value: str) -> HostAddr | None:
    for part in value.split(";"):
        part = part.strip()
        if part.startswith("addr="):
            text = part[len("addr="):].strip().strip('"')
            try:
                return HostAddr.parse(text)
            except AddressError:
                return None
    return None


ISD_AS_LIKE = st.one_of(
    st.builds(lambda isd, a, b, c: f"{isd}-{a:x}:{b:x}:{c:x}",
              st.integers(-2, 70_000), st.integers(0, 0x1ffff),
              st.integers(0, 0xffff), st.integers(0, 0xffff)),
    st.builds(lambda isd, asn: f"{isd}-{asn}",
              st.integers(-2, 70_000), st.integers(-5, 1 << 49)),
)
FRAGMENTS = st.one_of(
    st.sampled_from(["max-age=", "addr=", '"', ";", "; ", " ", ",", "-",
                     "+", "_", "0", "00", "includeSubDomains", "MAX-AGE=",
                     "addr =", "10.0.0.1", "host"]),
    st.integers(-10**6, 10**12).map(str),
    ISD_AS_LIKE,
    ISD_AS_LIKE.map(lambda isd_as: f'addr="{isd_as},h"'),
    st.text(max_size=6),
)
HEADER_VALUES = st.one_of(st.lists(FRAGMENTS, max_size=14).map("".join),
                          st.text(max_size=40))


def response(value: str) -> HttpResponse:
    return HttpResponse(status=200,
                        headers=Headers({STRICT_SCION_HEADER: value}))


@settings(max_examples=400, deadline=None)
@given(HEADER_VALUES)
def test_memoised_parse_equals_the_reference(value):
    for _ in range(2):  # the second round reads the memo
        max_age = response(value).strict_scion_max_age()
        address = response(value).strict_scion_address()
        assert max_age == reference_max_age(value)
        assert address == reference_address(value)
        assert max_age is None or (type(max_age) is int and max_age >= 0)
        assert address is None or isinstance(address, HostAddr)


def test_directives_found_anywhere_in_the_value():
    value = 'x; addr="1-ff00:0:110,h"; max-age=7; max-age=9; addr=junk'
    assert response(value).strict_scion_max_age() == 7
    assert str(response(value).strict_scion_address()) == "1-ff00:0:110,h"


@pytest.mark.parametrize("digits", ["1_0", "\u0663", "+5", "-5"])
def test_max_age_takes_ascii_digits_only(digits):
    value = f"max-age={digits}"
    assert response(value).strict_scion_max_age() is None
    assert reference_max_age(value) is None


def test_first_malformed_directive_decides():
    value = 'max-age=x; max-age=5; addr="1-1"; addr="1-1,h"'
    assert response(value).strict_scion_max_age() is None
    assert response(value).strict_scion_address() is None


def test_memo_is_bounded():
    for index in range(3 * STRICT_SCION_MEMO_SIZE):
        assert response(f"max-age={index}").strict_scion_max_age() == index
    assert len(message._STRICT_SCION_PARSED) <= STRICT_SCION_MEMO_SIZE
