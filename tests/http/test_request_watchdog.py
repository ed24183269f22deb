"""A request's deadline is one timer that interrupts the requesting
process, not a helper process racing a timeout.

``HttpClient.request(timeout_ms=)`` runs the exchange inline and arms a
``call_later`` that throws ``Interrupt(<private cause>)`` into whichever
process made the request. That process turns its own interrupt into
``RequestTimeoutError``; any other interrupt propagates as it came, and
every exit withdraws the timer.
"""

import pytest

from repro.errors import RequestTimeoutError, SimulationError
from repro.http.client import HttpClient
from repro.http.message import Headers, HttpRequest, ResourceData
from repro.http.server import HttpServer
from repro.internet.build import Internet
from repro.obs.spans import Tracer
from repro.simnet.events import Interrupt
from repro.topology.defaults import remote_testbed

CONTENT = {"/index.html": ResourceData(size=10_000, content_type="text/html")}


def _world(silent=False):
    """A client and a server in the remote testbed; a silent server
    reads each request and never answers it."""
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=10)
    client_host = internet.add_host("client", ases.client)
    server_host = internet.add_host("server", ases.remote_server)
    server = HttpServer(server_host, CONTENT, serve_tcp=True,
                        serve_quic=True)
    if silent:
        def never_answer(stream, over_scion):
            yield stream.recv()
            yield internet.loop.event()

        server._serve_stream = never_answer
    client = HttpClient(client_host)
    client.tracer = Tracer(internet.loop)
    path = client_host.daemon.paths(ases.remote_server)[0]
    return internet, client, server_host, path


def _get():
    return HttpRequest(method="GET", host="server.example",
                       path="/index.html", headers=Headers())


def _drained(loop):
    return not loop._queue and not loop._cancelled


@pytest.mark.parametrize("via", ["ip", "scion"])
def test_deadline_mid_exchange_discards_the_stream(via):
    internet, client, server_host, path = _world(silent=True)
    port = 443 if via == "scion" else 80

    def main():
        with pytest.raises(RequestTimeoutError):
            yield from client.request(server_host.addr, port, _get(),
                                      via=via, path=path,
                                      timeout_ms=500.0)
        return internet.loop.now

    started = internet.loop.now
    assert internet.loop.run_process(main()) == started + 500.0
    assert client.stats.timeouts == 1
    assert client.stats.connections_opened == 1
    # The stream with a response owed on it never serves again.
    assert all(not pool.connections and not pool.opening
               for pool in client._pools.values())
    assert client.tracer.open_spans() == []
    span = client.tracer.spans_named("http.request")[0]
    assert span.attributes["error"] == "RequestTimeoutError"


def test_a_foreign_interrupt_propagates_and_withdraws_the_timer():
    internet, client, server_host, path = _world(silent=True)
    loop = internet.loop

    def main():
        yield from client.request(server_host.addr, 80, _get(), via="ip",
                                  timeout_ms=60_000.0)

    process = loop.process(main())
    loop.call_later(200.0, process.interrupt, "user closed the tab")
    loop.run()
    assert isinstance(process.exception, Interrupt)
    assert process.exception.cause == "user closed the tab"
    assert client.stats.timeouts == 0
    # The withdrawn deadline neither fires nor stretches the clock.
    assert loop.now < 60_000.0
    assert _drained(loop)
    assert client.tracer.open_spans() == []


@pytest.mark.parametrize("silent", [False, True])
def test_a_world_drains_after_a_timed_request(silent):
    internet, client, server_host, path = _world(silent=silent)

    def main():
        try:
            yield from client.request(server_host.addr, 443, _get(),
                                      via="scion", path=path,
                                      timeout_ms=5_000.0)
        except RequestTimeoutError:
            return "timeout"
        return "ok"

    assert internet.loop.run_process(main()) == (
        "timeout" if silent else "ok")
    assert _drained(internet.loop)


def test_an_unfired_watchdog_costs_no_loop_event():
    """No helper process, timeout or AnyOf: a timed request that
    answers in time runs the untimed request's loop events exactly."""
    runs = []
    for timeout_ms in (None, 60_000.0):
        internet, client, server_host, path = _world()

        def main():
            response = yield from client.request(
                server_host.addr, 443, _get(), via="scion", path=path,
                timeout_ms=timeout_ms)
            return response.status

        assert internet.loop.run_process(main()) == 200
        runs.append((internet.loop.now, internet.loop.events_processed))
    assert runs[0] == runs[1]


def test_a_timed_request_outside_a_process_is_rejected():
    internet, client, server_host, path = _world()
    request = client.request(server_host.addr, 80, _get(), via="ip",
                             timeout_ms=100.0)
    with pytest.raises(SimulationError):
        next(request)
