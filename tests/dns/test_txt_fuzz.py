"""Fuzzing the SCION TXT path: ``scion=`` records, addresses, detection.

Whatever a zone holds, ``parse_scion_txt``, ``HostAddr.parse`` and a
detection that reads the TXT record raise only :mod:`repro.errors`
exceptions; and an address's canonical text (``str``) parses back to
the same address, through a TXT record too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.skip.detection import ScionDetector
from repro.dns.records import (DnsRecord, RecordType, parse_scion_txt,
                               scion_txt_record)
from repro.dns.resolver import Resolver
from repro.errors import ReproError
from repro.scion.addr import HostAddr
from repro.simnet.events import EventLoop
from repro.topology.isd_as import MAX_ASN, MAX_ISD, IsdAs

ISD_ASES = st.builds(IsdAs, st.integers(0, MAX_ISD), st.integers(0, MAX_ASN))
#: Host parts that survive a TXT record: no separator or control
#: character (which covers every whitespace) splits the token.
HOSTS = st.text(st.characters(exclude_categories=("Z", "Cc")),
                min_size=1, max_size=12)
ADDRESSES = st.builds(HostAddr, ISD_ASES, HOSTS)

#: Near misses of an address: what ``int()`` tolerates beyond ASCII
#: digits, separators, hex, wide numbers.
SOUP = st.one_of(
    st.sampled_from(["scion=", "scion", "=", ",", "-", ":", " ", "\n",
                     "\t", "+", "_", "0", "1", "ff00", "0:0", "ff00:0:110",
                     "1-ff00:0:110", "2-64512", ",host", "١",
                     "１", " ", "v=spf1"]),
    st.integers(-10**6, 10**25).map(str),
    ISD_ASES.map(str),
    st.text(max_size=4),
)
VALUES = st.one_of(st.text(max_size=40),
                   st.lists(SOUP, max_size=16).map("".join),
                   st.lists(SOUP, max_size=16).map(" ".join))


@settings(max_examples=300)
@given(VALUES)
def test_parsers_raise_only_repro_errors(value):
    for parse in (parse_scion_txt, HostAddr.parse, IsdAs.parse):
        try:
            parse(value)
        except ReproError:
            pass


@settings(max_examples=100)
@given(VALUES)
def test_detection_over_a_txt_record_raises_only_repro_errors(value):
    loop = EventLoop()
    resolver = Resolver(loop, lookup_latency_ms=1.0)
    resolver.add_record(DnsRecord("a.example", RecordType.TXT, value))
    detector = ScionDetector(resolver=resolver)
    try:
        result = loop.run_process(detector.detect("a.example"))
    except ReproError:
        return
    assert result.source in ("dns-txt", "none")
    assert (result.source == "dns-txt") == (result.scion_address is not None)


@settings(max_examples=200)
@given(ADDRESSES)
def test_canonical_text_round_trips(address):
    assert IsdAs.parse(str(address.isd_as)) == address.isd_as
    assert HostAddr.parse(str(address)) == address
    assert str(HostAddr.parse(str(address))) == str(address)
    record = scion_txt_record("a.example", address)
    assert parse_scion_txt(record.value) == address
