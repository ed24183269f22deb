"""Multipath bulk transfer over SCION.

Path-aware networks natively offer inter-domain multipath (paper §1:
"multiple path options ... simultaneously also providing native
inter-domain multipath"). This module provides the minimal machinery to
exploit it at the transport layer:

* :func:`disjoint_paths` — greedily pick a set of link-disjoint paths
  from a candidate list (disjointness is what makes capacities add up),
* :func:`split_by_bandwidth` — divide a payload across paths in
  proportion to their advertised bottleneck bandwidths,
* :class:`BulkSink` — a QUIC service that acknowledges received blobs,
* :func:`multipath_send` — one QUIC connection per path, the payload
  shares sent in parallel, completing when the slowest share is
  acknowledged.

Ablation D (``run_all``) uses this to measure the multipath speedup on
the dual-homed testbed.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.errors import NoPathError
from repro.internet.host import Host
from repro.quic.connection import QuicConnection, QuicListener, quic_connect
from repro.scion.addr import HostAddr
from repro.scion.path import ScionPath


def disjoint_paths(candidates: list[ScionPath],
                   max_paths: int = 2) -> list[ScionPath]:
    """Greedily select link-disjoint paths (by (AS, interface) pairs).

    Candidates are considered in the given order (the daemon's
    lowest-latency-first), so the result is the fastest disjoint set.
    """
    chosen: list[ScionPath] = []
    used: set[tuple] = set()
    for path in candidates:
        interfaces = set(path.interfaces())
        if interfaces & used:
            continue
        chosen.append(path)
        used |= interfaces
        if len(chosen) == max_paths:
            break
    return chosen


def split_by_bandwidth(total_size: int, paths: list[ScionPath]) -> list[int]:
    """Byte shares proportional to bottleneck bandwidth (equal when
    bandwidths are unknown). Shares sum exactly to ``total_size``."""
    weights = [max(path.metadata.bandwidth_mbps, 0.0) for path in paths]
    if not any(weights):
        weights = [1.0] * len(paths)
    scale = sum(weights)
    shares = [int(total_size * weight / scale) for weight in weights]
    shares[-1] += total_size - sum(shares)  # rounding remainder
    return shares


class BulkSink:
    """A QUIC service that swallows blobs and acknowledges each one."""

    def __init__(self, host: Host, port: int = 4443) -> None:
        self.host = host
        self.bytes_received = 0
        self.blobs = 0
        self.listener = QuicListener(host, port, self._handler)

    def _handler(self, connection: QuicConnection) -> Generator:
        while True:
            stream = yield connection.accept_stream()
            assert self.host.loop is not None
            self.host.loop.serve(self._drain(stream),
                                 name=f"bulk-sink:{self.host.name}")

    def _drain(self, stream) -> Generator:
        from repro.errors import ConnectionClosedError
        while True:
            try:
                blob = yield stream.recv()
            except ConnectionClosedError:
                return
            size, tag = blob
            self.bytes_received += size
            self.blobs += 1
            stream.send(("ack", tag), 32)


def multipath_send(host: Host, dst: HostAddr, port: int, total_size: int,
                   paths: list[ScionPath]) -> Generator:
    """Send ``total_size`` bytes across ``paths`` in parallel
    (simulation process); returns the elapsed milliseconds.

    Each path gets its own QUIC connection and a bandwidth-proportional
    share; the transfer completes when every share is acknowledged.
    """
    if not paths:
        raise NoPathError("multipath send needs at least one path")
    assert host.loop is not None
    loop = host.loop
    shares = split_by_bandwidth(total_size, paths)
    started = loop.now

    def one_share(path: ScionPath, share: int, tag: int) -> Generator:
        connection = yield from quic_connect(host, dst, port, via="scion",
                                             path=path)
        stream = connection.open_stream()
        stream.send((share, tag), share)
        ack = yield stream.recv()
        connection.close()
        return ack

    workers = [loop.process(one_share(path, share, tag), name=f"mp:{tag}")
               for tag, (path, share) in enumerate(zip(paths, shares))]
    yield loop.all_of(workers)
    return loop.now - started
