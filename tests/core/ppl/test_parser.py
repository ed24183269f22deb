"""PPL parser: grammar, round-tripping, and error reporting."""

import pytest

from repro.core.ppl.ast import Policy
from repro.core.ppl.parser import parse_policies, parse_policy
from repro.errors import PolicyParseError
from repro.topology.isd_as import IsdAs

FULL_POLICY = """
policy "kitchen-sink" {
    acl {
        - 2-0              # no ISD 2
        - 0-ff00:0:310     # nor this AS anywhere
        + 0                # rest is fine
    }
    sequence "1-ff00:0:120 0* 2-0+"
    require mtu >= 1400
    require latency <= 80
    prefer co2 asc
    prefer latency asc
}
"""


class TestGrammar:
    def test_full_policy(self):
        policy = parse_policy(FULL_POLICY)
        assert policy.name == "kitchen-sink"
        assert len(policy.acl) == 3
        assert policy.acl[0].allow is False
        assert policy.acl[0].pattern == IsdAs(2, 0)
        assert policy.acl[2].pattern == IsdAs(0, 0)
        assert len(policy.sequence) == 3
        assert policy.sequence[1].modifier == "*"
        assert policy.sequence[2].modifier == "+"
        assert len(policy.requirements) == 2
        assert policy.requirements[0].metric == "mtu"
        assert policy.preferences[0].metric == "co2"

    def test_minimal_policy(self):
        policy = parse_policy('policy "min" { }')
        assert policy.acl == ()
        assert policy.sequence is None
        assert policy.has_catch_all()

    def test_bare_sign_is_catch_all(self):
        policy = parse_policy('policy "p" { acl { - 1-0 + } }')
        assert policy.acl[1].pattern == IsdAs(0, 0)

    def test_bare_isd_pattern(self):
        policy = parse_policy('policy "p" { acl { - 3 + 0 } }')
        assert policy.acl[0].pattern == IsdAs(3, 0)

    def test_multiple_policies_in_one_file(self):
        policies = parse_policies('policy "a" { } policy "b" { }')
        assert [policy.name for policy in policies] == ["a", "b"]

    def test_float_requirement_value(self):
        policy = parse_policy('policy "p" { require loss <= 0.01 }')
        assert policy.requirements[0].value == 0.01

    def test_prefer_desc(self):
        policy = parse_policy('policy "p" { prefer bandwidth desc }')
        assert policy.preferences[0].descending

    def test_render_round_trip(self):
        original = parse_policy(FULL_POLICY)
        reparsed = parse_policy(original.render())
        assert reparsed == original

    def test_render_round_trip_minimal(self):
        original = parse_policy('policy "m" { prefer latency asc }')
        assert parse_policy(original.render()) == original


class TestErrors:
    @pytest.mark.parametrize("source,fragment", [
        ('policy "p" { acl { } }', "empty acl"),
        ('policy "p" { sequence "" }', "empty sequence"),
        ('policy "p" { require warp <= 1 }', "unknown metric"),
        ('policy "p" { prefer latency sideways }', "asc"),
        ('policy "p" { bogus }', "unknown statement"),
        ('policy "p" { acl { + } acl { + } }', "duplicate acl"),
        ('policy "p" { sequence "0" sequence "0" }', "duplicate sequence"),
        ('policy "p" { sequence "not-a-pattern!" }', "invalid sequence hop"),
        ('policy "p" { acl { + \u0661 } }', "invalid pattern"),
        ('policy "p" { sequence "\u0661-0" }', "invalid sequence hop"),
        ('policy "p" ', "expected"),
        ('"p" { }', "expected"),
    ])
    def test_rejects(self, source, fragment):
        with pytest.raises(PolicyParseError, match=fragment):
            parse_policy(source)

    def test_parse_policy_requires_exactly_one(self):
        with pytest.raises(PolicyParseError, match="exactly one"):
            parse_policy('policy "a" { } policy "b" { }')
        with pytest.raises(PolicyParseError, match="exactly one"):
            parse_policy("")

    def test_error_carries_position(self):
        try:
            parse_policy('policy "p" { require warp <= 1 }')
        except PolicyParseError as error:
            assert error.position is not None
        else:  # pragma: no cover
            pytest.fail("expected a parse error")


class TestGeofencePolicyRenderable:
    def test_geofence_compiles_and_parses(self):
        from repro.core.geofence import Geofence
        geofence = Geofence(blocked_isds={2, 3})
        rendered = geofence.to_policy().render()
        parsed = parse_policy(rendered)
        assert isinstance(parsed, Policy)
        assert len(parsed.acl) == 3
