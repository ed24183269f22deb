"""SCION host addresses."""

import os
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.scion.addr import HostAddr
from repro.topology.isd_as import MAX_ASN, MAX_ISD, IsdAs


class TestHostAddr:
    def test_parse_and_str_round_trip(self):
        text = "1-ff00:0:110,10.0.0.1"
        assert str(HostAddr.parse(text)) == text

    def test_components(self):
        address = HostAddr.parse("2-64512,server-3")
        assert address.isd_as == IsdAs(2, 64512)
        assert address.host == "server-3"

    @pytest.mark.parametrize("bad", ["1-ff00:0:110", "1-1,", ",host",
                                     "nonsense"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(AddressError):
            HostAddr.parse(bad)

    def test_empty_host_rejected(self):
        with pytest.raises(AddressError):
            HostAddr(isd_as=IsdAs(1, 1), host="")

    def test_hashable_and_ordered(self):
        a = HostAddr(IsdAs(1, 1), "a")
        b = HostAddr(IsdAs(1, 1), "b")
        c = HostAddr(IsdAs(1, 2), "a")
        assert len({a, b, c, HostAddr(IsdAs(1, 1), "a")}) == 3
        assert sorted([c, b, a]) == [a, b, c]

    @given(isd=st.integers(min_value=0, max_value=MAX_ISD),
           asn=st.integers(min_value=0, max_value=MAX_ASN),
           host=st.text(alphabet=st.characters(
               whitelist_categories=("Ll", "Nd")), min_size=1, max_size=12))
    def test_round_trip_property(self, isd, asn, host):
        address = HostAddr(IsdAs(isd, asn), host)
        assert HostAddr.parse(str(address)) == address


SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Pickles two addresses to stdout, or reads them from stdin and looks
#: each up in a dict keyed by an equal address built in that process.
PICKLER = """
import pickle, sys
from repro.scion.addr import HostAddr
from repro.topology.isd_as import IsdAs
fresh = [HostAddr(IsdAs(1, 0xff0000000110), "10.0.0.1"),
         HostAddr.parse("2-64512,server-3")]
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(fresh))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    table = {address: index for index, address in enumerate(fresh)}
    print([table.get(address) for address in loaded],
          [hash(a) == hash(b) for a, b in zip(loaded, fresh)])
"""


def _child(mode: str, seed: str, data: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", PICKLER, mode], env=env,
                          input=data, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


class TestCachedHash:
    """The hash is computed once per address and never leaves its
    process: ``str`` hashes are salted per process, so an address
    pickled with its hash would miss every dict in a spawned worker."""

    def test_hash_is_the_field_tuple_hash(self):
        address = HostAddr(IsdAs(1, 1), "a")
        assert hash(address) == hash((address.isd_as, address.host))

    def test_pickle_rebuilds_the_address(self):
        address = HostAddr(IsdAs(1, 1), "a")
        copy = pickle.loads(pickle.dumps(address))
        assert copy == address and hash(copy) == hash(address)
        assert {address: 1}[copy] == 1

    def test_address_pickled_under_another_hash_seed_is_found(self):
        data = _child("dump", "1")
        assert _child("load", "2", data).decode().strip() == \
            "[0, 1] [True, True]"
