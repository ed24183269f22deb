"""Per-packet wire records are immutable.

``Datagram``, ``Segment``, ``AckFrame`` and ``StreamFrame`` are shared
by reference between sender, links, routers and receiver, so no hop may
change one in place.
"""

import pytest

from repro.internet.host import Datagram
from repro.quic.connection import StreamFrame
from repro.scion.addr import HostAddr, IsdAs
from repro.transport.reliable import AckFrame, Segment

ADDR = HostAddr(IsdAs(1, 1), "h")

RECORDS = [
    (Datagram(ADDR, 1, ADDR, 2, "payload", 10, "ip"),
     ("src", "src_port", "dst", "dst_port", "payload", "size", "via",
      "path")),
    (Segment(0, 1200, True, "payload"),
     ("seq", "chunk_size", "message_end", "payload")),
    (AckFrame(3), ("cumulative",)),
    (StreamFrame(4, AckFrame(3)), ("stream_id", "frame")),
]
IDS = [type(record).__name__ for record, _fields in RECORDS]


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_no_field_can_be_assigned(record, fields):
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_no_field_can_be_added(record, fields):
    del fields
    with pytest.raises(AttributeError):
        record.extra = 1


def test_defaults_match_the_wire_meaning():
    assert Datagram(ADDR, 1, ADDR, 2, None, 0, "ip").path is None
    assert Segment(0, 10, False).payload is None
