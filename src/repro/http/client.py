"""A pooling HTTP client.

Used by the SKIP proxy for upstream fetches and by the browser baseline
for direct fetches. Connections are pooled per (destination, transport,
path): HTTP/1.1 keep-alive semantics with at most
``max_connections_per_key`` parallel connections per key — matching how
browsers and proxies fan out concurrent resource fetches (classically 6
per origin).

For SCION the client follows the paper's mapping: one HTTP/1.x
request/response exchange at a time per bidirectional QUIC stream, one
stream per pooled connection (§5.1).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (ConnectionClosedError, HttpError,
                          RequestTimeoutError)
from repro.http.message import HttpRequest, HttpResponse
from repro.internet.host import Host
from repro.ip.tcp import tcp_connect
from repro.obs.spans import NULL_SPAN, NULL_TRACER
from repro.quic.connection import quic_connect
from repro.scion.addr import HostAddr
from repro.scion.path import ScionPath
from repro.simnet.events import Interrupt

#: Browser-classic per-origin connection cap.
DEFAULT_MAX_CONNECTIONS = 6


@dataclass
class _PooledConnection:
    """One reusable stream-like transport (TCP conn or QUIC stream)."""

    stream: Any
    busy: bool = False
    requests: int = 0


@dataclass
class _Pool:
    """All connections for one (dst, port, via, path) key."""

    connections: list[_PooledConnection] = field(default_factory=list)
    opening: int = 0
    waiters: deque = field(default_factory=deque)


@dataclass
class ClientStats:
    """Counters for tests and experiments."""

    requests: int = 0
    connections_opened: int = 0
    errors: int = 0
    bytes_fetched: int = 0
    timeouts: int = 0
    #: Requests that queued because every pooled connection was busy.
    pool_waits: int = 0
    #: Total simulated ms those requests spent queued (contention).
    pool_wait_ms: float = 0.0


class HttpClient:
    """HTTP client bound to one simulated host."""

    def __init__(self, host: Host,
                 max_connections_per_key: int = DEFAULT_MAX_CONNECTIONS) -> None:
        self.host = host
        self.max_connections_per_key = max_connections_per_key
        self._pools: dict[tuple, _Pool] = {}
        self.stats = ClientStats()
        self.tracer = NULL_TRACER

    def request(self, dst: HostAddr, port: int, request: HttpRequest,
                via: str = "ip",
                path: ScionPath | None = None,
                timeout_ms: float | None = None,
                parent=NULL_SPAN) -> Generator:
        """Perform one HTTP exchange (simulation process).

        Usage: ``response = yield from client.request(...)``. Raises
        :class:`HttpError` when the transport fails and
        :class:`RequestTimeoutError` when ``timeout_ms`` elapses before
        the response arrives. A timed-out exchange keeps running in the
        background until its transport gives up; its connection returns
        to (or is discarded from) the pool when it does, so the pool
        never hands a half-used stream to a later request.
        """
        tracer = self.tracer
        span = tracer.span("http.request", parent=parent, via=via,
                           dst=str(dst), url=request.url) \
            if tracer.enabled else NULL_SPAN
        if timeout_ms is None:
            try:
                response = yield from self._request(dst, port, request, via,
                                                    path, span=span)
            except BaseException as error:
                span.set(error=type(error).__name__).end("error")
                raise
            span.end()
            return response
        assert self.host.loop is not None
        loop = self.host.loop
        exchange = loop.process(
            self._request(dst, port, request, via, path, span=span),
            name=f"http-{request.method}-{dst}")
        timer = loop.timeout(timeout_ms)
        try:
            event, value = yield loop.any_of([exchange, timer])
        except BaseException as error:
            timer.cancel()  # exchange failed first: withdraw the watchdog
            span.set(error=type(error).__name__).end("error")
            raise
        if event is timer:
            self.stats.timeouts += 1
            exchange.interrupt("request timeout")
            span.event("timeout", timeout_ms=timeout_ms)
            span.set(error="RequestTimeoutError").end("error")
            raise RequestTimeoutError(
                f"no response from {dst}:{port} within {timeout_ms:.0f} ms")
        timer.cancel()
        span.end()
        return value

    def _request(self, dst: HostAddr, port: int, request: HttpRequest,
                 via: str, path: ScionPath | None,
                 span=NULL_SPAN) -> Generator:
        key = (dst, port, via, path.fingerprint() if path else None)
        pooled = yield from self._acquire(key, dst, port, via, path,
                                          span=span)
        try:
            pooled.stream.send(request, request.wire_bytes())
            response = yield pooled.stream.recv()
        except ConnectionClosedError as error:
            self.stats.errors += 1
            self._discard(key, pooled)
            raise HttpError(f"connection to {dst}:{port} closed: {error}") \
                from error
        except Interrupt:
            # Timed out mid-exchange: the stream has an unconsumed
            # response in flight, so it must never serve another request.
            self._discard(key, pooled)
            raise
        finally:
            self._release(key, pooled)
        if not isinstance(response, HttpResponse):
            self.stats.errors += 1
            raise HttpError(f"non-HTTP payload from {dst}:{port}")
        pooled.requests += 1
        self.stats.requests += 1
        self.stats.bytes_fetched += response.body_size
        return response

    # -- pool management ----------------------------------------------------------

    def _acquire(self, key: tuple, dst: HostAddr, port: int, via: str,
                 path: ScionPath | None, span=NULL_SPAN) -> Generator:
        pool = self._pools.setdefault(key, _Pool())
        while True:
            for pooled in pool.connections:
                if not pooled.busy:
                    pooled.busy = True
                    span.set(pooled_connection=True)
                    return pooled
            in_flight = len(pool.connections) + pool.opening
            if in_flight < self.max_connections_per_key:
                pool.opening += 1
                try:
                    stream = yield from self._open(dst, port, via, path,
                                                   span=span)
                finally:
                    pool.opening -= 1
                pooled = _PooledConnection(stream=stream, busy=True)
                pool.connections.append(pooled)
                self.stats.connections_opened += 1
                return pooled
            assert self.host.loop is not None
            waiter = self.host.loop.event()
            pool.waiters.append(waiter)
            self.stats.pool_waits += 1
            queued_at = self.host.loop.now
            try:
                yield waiter
            except Interrupt:
                if waiter in pool.waiters:
                    pool.waiters.remove(waiter)
                elif pool.waiters:
                    # Our wakeup already fired: pass the freed slot on so
                    # it is not lost with this aborted request.
                    pool.waiters.popleft().succeed(None)
                raise
            finally:
                self.stats.pool_wait_ms += self.host.loop.now - queued_at

    def _open(self, dst: HostAddr, port: int, via: str,
              path: ScionPath | None, span=NULL_SPAN) -> Generator:
        if via == "scion":
            connection = yield from quic_connect(
                self.host, dst, port, via="scion", path=path,
                tracer=self.tracer, parent=span)
            return connection.open_stream()
        connection = yield from tcp_connect(
            self.host, dst, port, via="ip", path=None)
        return connection

    def _release(self, key: tuple, pooled: _PooledConnection) -> None:
        pooled.busy = False
        pool = self._pools.get(key)
        if pool is not None and pool.waiters:
            pool.waiters.popleft().succeed(None)

    def _discard(self, key: tuple, pooled: _PooledConnection) -> None:
        pool = self._pools.get(key)
        if pool is not None and pooled in pool.connections:
            pool.connections.remove(pooled)
            if pool.waiters:
                pool.waiters.popleft().succeed(None)
