"""Static-content origin servers.

An :class:`HttpServer` plays the role of the paper's file servers
(Figure 2: "two file servers providing static content"): it listens for
HTTP over TCP (legacy) and/or QUIC (SCION or IP), serves resources from
an in-memory content map with keep-alive semantics, and can advertise
``Strict-SCION`` on responses delivered over SCION (§4.2/§4.3 — the
header both enforces strict mode and advertises SCION availability).
"""

from __future__ import annotations

from collections.abc import Generator

from repro.http.message import (
    STRICT_SCION_HEADER,
    Headers,
    HttpRequest,
    HttpResponse,
    ResourceData,
)
from repro.internet.host import Host
from repro.ip.tcp import TcpConnection, TcpListener
from repro.quic.connection import QuicConnection, QuicListener, QuicStream

#: Default ports, mirroring http/https-over-quic conventions.
TCP_PORT = 80
QUIC_PORT = 443


class HttpServer:
    """Serves a static content map on one host.

    Args:
        host: the simulated host to run on.
        content: path → :class:`ResourceData` map.
        serve_tcp / serve_quic: which listeners to start. The paper's
            SCION file server is QUIC-only; the TCP/IP file server is
            TCP-only; a dual-stack origin enables both.
        strict_scion_max_age: when set, responses carry
            ``Strict-SCION: max-age=<n>`` — only on requests that arrived
            over SCION, since the header asserts SCION reachability.
        advertise_scion_address: when set, the ``Strict-SCION`` header
            carries ``addr="<scion address>"`` and is emitted on *every*
            response, including legacy TCP ones — §4.3's availability
            advertisement, which lets browsers discover the origin's
            SCION address (e.g. a nearby reverse proxy) from an ordinary
            IP fetch. Over TCP it carries no ``max-age``.
        server_name: value of the ``Server`` response header.
    """

    def __init__(self, host: Host, content: dict[str, ResourceData],
                 serve_tcp: bool = True, serve_quic: bool = True,
                 tcp_port: int = TCP_PORT, quic_port: int = QUIC_PORT,
                 strict_scion_max_age: int | None = None,
                 advertise_scion_address=None,
                 server_name: str = "repro-fs/1.0") -> None:
        self.host = host
        self.content = dict(content)
        self.strict_scion_max_age = strict_scion_max_age
        self.advertise_scion_address = advertise_scion_address
        self.server_name = server_name
        self.requests_served = 0
        self.requests_by_transport = {"tcp": 0, "quic": 0}
        self.not_found = 0
        self._header_blocks: dict[tuple[bool, str | None], Headers] = {}
        self.tcp_listener: TcpListener | None = None
        self.quic_listener: QuicListener | None = None
        if serve_tcp:
            self.tcp_listener = TcpListener(host, tcp_port, self._tcp_handler)
        if serve_quic:
            self.quic_listener = QuicListener(host, quic_port,
                                              self._quic_handler)

    # -- request handling -----------------------------------------------------

    def respond(self, request: HttpRequest, over_scion: bool) -> HttpResponse:
        """Build the response for one request (pure logic, no I/O)."""
        self.requests_served += 1
        resource = self.content.get(request.path)
        if resource is None:
            self.not_found += 1
            return HttpResponse(status=404,
                                headers=self._headers(over_scion, None),
                                body_size=120)
        headers = self._headers(over_scion, resource.content_type)
        if request.method == "HEAD":
            return HttpResponse(status=200, headers=headers, body_size=0)
        return HttpResponse(status=200, headers=headers,
                            body_size=resource.size, body=resource.body)

    def _headers(self, over_scion: bool,
                 content_type: str | None) -> Headers:
        """The response header block for one transport and content type
        (None: a 404). ``Headers`` is immutable and the server's header
        settings are fixed at construction, so each block is built once;
        there are at most two per content type the content map serves."""
        key = (over_scion, content_type)
        headers = self._header_blocks.get(key)
        if headers is None:
            pairs = [("Server", self.server_name)]
            header_value = self._strict_scion_value(over_scion)
            if header_value is not None:
                pairs.append((STRICT_SCION_HEADER, header_value))
            if content_type is not None:
                pairs.append(("Content-Type", content_type))
            headers = self._header_blocks[key] = Headers(pairs)
        return headers

    def _strict_scion_value(self, over_scion: bool) -> str | None:
        """The Strict-SCION header value for one response, or None.

        Strict-mode pinning (max-age) is only asserted over SCION; the
        availability advertisement (addr=) goes out on every transport.
        """
        parts = []
        if over_scion and self.strict_scion_max_age is not None:
            parts.append(f"max-age={self.strict_scion_max_age}")
        if self.advertise_scion_address is not None:
            parts.append(f'addr="{self.advertise_scion_address}"')
        return "; ".join(parts) or None

    # -- transport glue ---------------------------------------------------------

    def _tcp_handler(self, connection: TcpConnection) -> Generator:
        yield from self._serve_stream(connection, over_scion=False)

    def _quic_handler(self, connection: QuicConnection) -> Generator:
        while True:
            stream: QuicStream = yield connection.accept_stream()
            assert self.host.loop is not None
            self.host.loop.serve(
                self._serve_stream(stream, over_scion=True),
                name=f"http-stream:{self.host.name}")

    def _serve_stream(self, stream, over_scion: bool) -> Generator:
        """Keep-alive loop over one stream-like object (TCP connection or
        QUIC stream): requests in, responses out, until close."""
        from repro.errors import ConnectionClosedError
        while True:
            try:
                request = yield stream.recv()
            except ConnectionClosedError:
                return
            if not isinstance(request, HttpRequest):
                continue
            self.requests_by_transport["quic" if over_scion else "tcp"] += 1
            response = self.respond(request, over_scion=over_scion)
            stream.send(response, response.wire_bytes())
            # Parked on the next request, the handler holds neither.
            del request, response
