"""SCION reverse proxy for legacy web servers.

The paper complements its client-side proxy with "a simple reverse proxy
to add SCION support to web servers" (§5.1): it terminates QUIC-over-
SCION from browsers and forwards the requests over plain TCP/IP to a
nearby legacy origin. Figure 4's distributed setup uses exactly this — a
TCP/IP server "also reachable over a nearby SCION reverse proxy".
"""

from __future__ import annotations

from collections.abc import Generator

from repro.errors import HttpError, TransportError
from repro.http.client import HttpClient
from repro.http.message import (
    STRICT_SCION_HEADER,
    Headers,
    HttpRequest,
    HttpResponse,
)
from repro.internet.host import Host
from repro.quic.connection import QuicConnection, QuicListener, QuicStream

#: Backend header blocks whose forwarded form a proxy keeps.
FORWARDED_HEADERS_MEMO_SIZE = 16


class ScionReverseProxy:
    """Terminates SCION/QUIC and forwards to a legacy TCP origin.

    Args:
        host: the host the proxy runs on (typically in or near the
            origin's AS).
        backend: address of the legacy origin server.
        backend_port: the origin's TCP port.
        quic_port: SCION-facing QUIC port.
        advertise_strict_scion_max_age: when set, the proxy injects a
            ``Strict-SCION`` header into forwarded responses — the
            operator asserting full SCION reachability of the site.
    """

    def __init__(self, host: Host, backend, backend_port: int = 80,
                 quic_port: int = 443,
                 advertise_strict_scion_max_age: int | None = None) -> None:
        self.host = host
        self.backend = backend
        self.backend_port = backend_port
        self.advertise_strict_scion_max_age = advertise_strict_scion_max_age
        self.client = HttpClient(host)
        self.requests_forwarded = 0
        self.errors = 0
        #: Backend header block → the block forwarded to the browser.
        self._forwarded: dict[Headers, Headers] = {}
        self.listener = QuicListener(host, quic_port, self._handler)

    def _handler(self, connection: QuicConnection) -> Generator:
        while True:
            stream: QuicStream = yield connection.accept_stream()
            assert self.host.loop is not None
            self.host.loop.serve(self._serve_stream(stream),
                                 name=f"revproxy:{self.host.name}")

    def _serve_stream(self, stream: QuicStream) -> Generator:
        from repro.errors import ConnectionClosedError
        while True:
            try:
                request = yield stream.recv()
            except ConnectionClosedError:
                return
            if not isinstance(request, HttpRequest):
                continue
            response = yield from self._forward(request)
            stream.send(response, response.wire_bytes())
            # Parked on the next request, the handler holds neither.
            del request, response

    def _forward(self, request: HttpRequest) -> Generator:
        try:
            response: HttpResponse = yield from self.client.request(
                self.backend, self.backend_port, request, via="ip")
        except (HttpError, TransportError):
            self.errors += 1
            return HttpResponse(status=502, body_size=120)
        self.requests_forwarded += 1
        if self.advertise_strict_scion_max_age is not None:
            headers = self._forwarded_headers(response.headers)
            if headers is not response.headers:
                response = HttpResponse(status=response.status,
                                        headers=headers,
                                        body_size=response.body_size,
                                        body=response.body)
        return response

    def _forwarded_headers(self, backend: Headers) -> Headers:
        """``backend``'s header block with ``Strict-SCION`` added unless
        the origin set its own.

        An origin serves a few header blocks and reuses each (see
        :meth:`HttpServer._headers`), so the result is kept per block:
        keyed on the block's identity, which the entry's reference keeps
        from being reused, and bounded (oldest out first) for an origin
        that builds a new block per response.
        """
        forwarded = self._forwarded.get(backend)
        if forwarded is None:
            forwarded = backend
            if not backend.has(STRICT_SCION_HEADER):
                forwarded = backend.with_header(
                    STRICT_SCION_HEADER,
                    f"max-age={self.advertise_strict_scion_max_age}; "
                    f'addr="{self.host.addr}"')
            if len(self._forwarded) >= FORWARDED_HEADERS_MEMO_SIZE:
                del self._forwarded[next(iter(self._forwarded))]
            self._forwarded[backend] = forwarded
        return forwarded
