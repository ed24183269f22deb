"""ISD-AS identifiers: parsing, formatting, wildcard matching."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.topology.isd_as import MAX_ASN, MAX_ISD, IsdAs, format_asn, parse_asn


class TestParsing:
    def test_decimal(self):
        assert IsdAs.parse("2-64512") == IsdAs(2, 64512)

    def test_dotted_hex(self):
        expected = (0xFF00 << 32) | 0x110
        assert IsdAs.parse("1-ff00:0:110") == IsdAs(1, expected)

    def test_round_trip_hex(self):
        text = "1-ff00:0:110"
        assert str(IsdAs.parse(text)) == text

    def test_round_trip_decimal(self):
        assert str(IsdAs.parse("3-65000")) == "3-65000"

    @pytest.mark.parametrize("bad", ["1", "x-1", "1-", "1-zz", "-5", "1-1-1",
                                     "1-ff00:0", "1-ff00:0:0:0"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(AddressError):
            IsdAs.parse(bad)

    @pytest.mark.parametrize("bad", ["1_0-ff00:0:110", "\u0661-64512",
                                     "+1-6_4512", "1-6_4512", " 1-64512",
                                     "1-64512 ", "1-ff00:0:110\n",
                                     "1-\uff16\uff14\uff15\uff11\uff12"])
    def test_only_ascii_digits(self, bad):
        """What ``int()`` tolerates beyond ASCII digits -- a sign, ``_``,
        whitespace, non-ASCII digits -- is not the notation."""
        with pytest.raises(AddressError):
            IsdAs.parse(bad)

    def test_isd_range_enforced(self):
        with pytest.raises(AddressError):
            IsdAs(MAX_ISD + 1, 1)
        with pytest.raises(AddressError):
            IsdAs(-1, 1)

    def test_asn_range_enforced(self):
        with pytest.raises(AddressError):
            IsdAs(1, MAX_ASN + 1)

    def test_parse_asn_range(self):
        with pytest.raises(AddressError):
            parse_asn(str(MAX_ASN + 1))


class TestFormatting:
    def test_small_asn_decimal(self):
        assert format_asn(64512) == "64512"

    def test_large_asn_hex(self):
        assert format_asn((0xFF00 << 32) | 0x110) == "ff00:0:110"

    def test_boundary_at_2_32(self):
        assert format_asn((1 << 32) - 1) == str((1 << 32) - 1)
        assert ":" in format_asn(1 << 32)

    def test_out_of_range(self):
        with pytest.raises(AddressError):
            format_asn(-1)


class TestWildcards:
    def test_zero_isd_matches_any_isd(self):
        assert IsdAs(0, 5).matches(IsdAs(9, 5))

    def test_zero_asn_matches_any_asn(self):
        assert IsdAs(2, 0).matches(IsdAs(2, 12345))

    def test_full_wildcard(self):
        assert IsdAs(0, 0).matches(IsdAs(7, 7))

    def test_exact_mismatch(self):
        assert not IsdAs(1, 2).matches(IsdAs(1, 3))
        assert not IsdAs(1, 2).matches(IsdAs(2, 2))

    def test_matching_is_symmetric(self):
        assert IsdAs(0, 5).matches(IsdAs(3, 5))
        assert IsdAs(3, 5).matches(IsdAs(0, 5))

    def test_is_wildcard(self):
        assert IsdAs(0, 1).is_wildcard
        assert IsdAs(1, 0).is_wildcard
        assert not IsdAs(1, 1).is_wildcard


class TestOrderingHashing:
    def test_sortable(self):
        items = [IsdAs(2, 1), IsdAs(1, 9), IsdAs(1, 2)]
        assert sorted(items) == [IsdAs(1, 2), IsdAs(1, 9), IsdAs(2, 1)]

    def test_usable_as_dict_key(self):
        table = {IsdAs(1, 2): "x"}
        assert table[IsdAs.parse("1-2")] == "x"


class TestCachedHash:
    """``IsdAs`` computes its hash once; it must stay the value the
    generated dataclass hash gave, so dict and set order do not move."""

    @given(isd=st.integers(min_value=0, max_value=MAX_ISD),
           asn=st.integers(min_value=0, max_value=MAX_ASN))
    def test_hash_is_the_field_tuple_hash(self, isd, asn):
        assert hash(IsdAs(isd, asn)) == hash((isd, asn))

    @pytest.mark.parametrize("duplicate", [
        lambda isd_as: pickle.loads(pickle.dumps(isd_as)),
        copy.copy,
        copy.deepcopy,
        lambda isd_as: dataclasses.replace(isd_as),
    ], ids=["pickle", "copy", "deepcopy", "replace"])
    def test_copies_keep_hash_and_equality(self, duplicate):
        original = IsdAs(1, 0xFF00_0000_0110)
        twin = duplicate(original)
        assert twin == original and hash(twin) == hash(original)
        assert {original: "x"}[twin] == "x"

    def test_replace_rehashes_the_new_fields(self):
        moved = dataclasses.replace(IsdAs(1, 2), asn=3)
        assert moved == IsdAs(1, 3) and hash(moved) == hash((1, 3))

    def test_equality_and_ordering_ignore_the_cache(self):
        assert IsdAs(1, 2) == IsdAs(1, 2) and IsdAs(1, 2) != IsdAs(1, 3)
        assert IsdAs(1, 2) != (1, 2)
        assert IsdAs(1, 9) < IsdAs(2, 1) <= IsdAs(2, 1) < IsdAs(2, 2)
        assert IsdAs(2, 2) > IsdAs(1, 9) >= IsdAs(1, 9)
        assert repr(IsdAs(1, 2)) == "IsdAs(isd=1, asn=2)"
        assert dataclasses.astuple(IsdAs(1, 2)) == (1, 2)


@given(isd=st.integers(min_value=0, max_value=MAX_ISD),
       asn=st.integers(min_value=0, max_value=MAX_ASN))
def test_str_parse_round_trip_property(isd, asn):
    identifier = IsdAs(isd, asn)
    assert IsdAs.parse(str(identifier)) == identifier


@given(asn=st.integers(min_value=0, max_value=MAX_ASN))
def test_asn_format_parse_round_trip_property(asn):
    assert parse_asn(format_asn(asn)) == asn
