"""Property tests for the PPL text form: render round trip and fuzzing.

Every policy that can be constructed must render to source that parses
back to the same policy, whatever its requirement values: ``:g``
formatting once rounded ``12.3456789`` to ``12.3457`` and wrote
``1234567`` as ``1.23457e+06``, which the lexer cannot read, and a
negative or infinite bound rendered text the parser rejects (such a
requirement can no longer be built). And whatever text a user or a page
hands the lexer and parser, the only exceptions they raise are
:mod:`repro.errors` ones.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ppl import parse_policies, parse_policy
from repro.core.ppl.ast import (
    METRICS,
    MODIFIERS,
    OPERATORS,
    AclEntry,
    Policy,
    Preference,
    Requirement,
    SequenceToken,
)
from repro.core.ppl.lexer import tokenize
from repro.errors import PolicyError, ReproError
from repro.topology.isd_as import MAX_ASN, MAX_ISD, IsdAs

PATTERNS = st.one_of(
    st.just(IsdAs(0, 0)),
    st.builds(IsdAs, st.integers(0, MAX_ISD), st.just(0)),
    st.builds(IsdAs, st.integers(0, MAX_ISD), st.integers(0, MAX_ASN)),
)
#: Any finite value >= 0: the lexer has no sign, exponent or infinity.
VALUES = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


def _requirement(metric: str, op: str, value) -> Requirement | None:
    try:
        return Requirement(metric, op, value)
    except PolicyError:
        return None


#: Every requirement that can be constructed, from any value a caller
#: might pass.
REQUIREMENTS = st.builds(
    _requirement, st.sampled_from(METRICS), st.sampled_from(OPERATORS),
    st.one_of(st.floats(), st.integers(), st.booleans(),
              st.sampled_from(["1", "1.5", " 2 ", "-1", "nan", "1e3"])),
).filter(lambda requirement: requirement is not None)

POLICIES = st.builds(
    Policy,
    name=st.text(st.characters(exclude_characters='"\n'), max_size=12),
    acl=st.lists(st.builds(AclEntry, st.booleans(), PATTERNS),
                 max_size=4).map(tuple),
    sequence=st.none() | st.lists(
        st.builds(SequenceToken, PATTERNS, st.sampled_from(MODIFIERS)),
        min_size=1, max_size=4).map(tuple),
    requirements=st.lists(REQUIREMENTS, max_size=4).map(tuple),
    preferences=st.lists(
        st.builds(Preference, st.sampled_from(METRICS), st.booleans()),
        max_size=3).map(tuple),
)

#: PPL lexemes, well- and ill-formed, to glue into near-miss sources.
SOUP = st.one_of(
    st.sampled_from(["policy", "acl", "sequence", "require", "prefer",
                     "asc", "desc", "{", "}", "+", "-", '"', '"p"', "#",
                     "\n", " ", "0", "1-ff00:0:110", "2-0", "70000",
                     "99999-1", "1-ff00:0:110?", "*", "?", "e", "."]
                    + list(METRICS) + list(OPERATORS)),
    st.integers(0, 10**20).map(str),
    VALUES.map(repr),
    st.text(max_size=4),
)
SOURCES = st.one_of(st.text(max_size=60),
                    st.lists(SOUP, max_size=24).map(" ".join),
                    st.lists(SOUP, max_size=24).map("".join))


@settings(max_examples=200)
@given(POLICIES)
def test_render_parses_back_to_the_same_policy(policy):
    assert parse_policy(policy.render()) == policy


@pytest.mark.parametrize("value,text", [
    (12.3456789, "12.3456789"),
    (1234567.0, "1234567"),
    (0.0000123, "0.0000123"),
    (1e16, "10000000000000000"),
    (0.01, "0.01"),
])
def test_requirement_renders_a_positional_decimal(value, text):
    requirement = Requirement("latency", "<=", value)
    assert requirement.render() == f"require latency <= {text}"


@pytest.mark.parametrize("value", [-1.0, -5e-324, -1, math.inf, -math.inf,
                                   math.nan, 10**400, "inf", None])
def test_requirement_rejects_what_the_text_cannot_carry(value):
    with pytest.raises(PolicyError):
        Requirement("latency", "<=", value)


@settings(max_examples=200)
@given(VALUES)
def test_every_finite_value_at_least_zero_is_a_requirement(value):
    assert Requirement("latency", "<=", value).value == value


@settings(max_examples=300)
@given(SOURCES)
def test_parsing_raises_only_repro_errors(source):
    for parse in (tokenize, parse_policy, parse_policies):
        try:
            parse(source)
        except ReproError:
            pass
