"""HTTP substrate tests: server, client, page loads, Alexa population."""

import pytest

from repro.http import HttpClient, HttpServer, alexa_top_pages
from repro.http.client import HttpError, _parse_response_header
from repro.netsim import StarTopology
from repro.netsim.host import class_a_host, class_b_host
from repro.sim import Simulator
from repro.tlslib import TlsLibrary


@pytest.fixture()
def web():
    sim = Simulator()
    topo = StarTopology(sim)
    client_host = class_a_host(sim, "browser")
    server_host = class_b_host(sim, "webserver")
    topo.attach(client_host)
    topo.attach(server_host)
    server = HttpServer(server_host, port=80)
    server.add_resource("/index.html", b"<html>hello</html>")
    server.add_resource("/big", b"A" * 100_000)
    server.add_resource("/dynamic", lambda: b"generated")
    server.start()
    return sim, client_host, server_host, server


def run_fetch(sim, http, server_addr, path, **kwargs):
    box = {}

    def fetch():
        box["response"] = yield sim.process(http.get(server_addr, path, **kwargs))

    proc = sim.process(fetch())
    sim.run(until=sim.now + 30.0)
    if proc.exception:
        raise proc.exception
    return box["response"]


def test_http_get_small(web):
    sim, client_host, server_host, server = web
    response = run_fetch(sim, HttpClient(client_host), server_host.address, "/index.html")
    assert response.status == 200
    assert response.body == b"<html>hello</html>"
    assert response.elapsed_s > 0
    assert server.requests_served == 1


def test_http_get_large_body(web):
    sim, client_host, server_host, _server = web
    response = run_fetch(sim, HttpClient(client_host), server_host.address, "/big")
    assert response.status == 200 and len(response.body) == 100_000


def test_http_dynamic_provider(web):
    sim, client_host, server_host, _server = web
    response = run_fetch(sim, HttpClient(client_host), server_host.address, "/dynamic")
    assert response.body == b"generated"


def test_http_404(web):
    sim, client_host, server_host, _server = web
    response = run_fetch(sim, HttpClient(client_host), server_host.address, "/nope")
    assert response.status == 404


def test_http_connect_timeout_raises_http_error(web):
    sim, client_host, server_host, _server = web
    # nobody answers on the server's side: the TCP connect times out
    server_host.stack.interfaces[0].link.set_down(True)
    errors = []

    def fetch():
        try:
            yield sim.process(HttpClient(client_host).get(server_host.address, "/index.html"))
        except HttpError as exc:
            errors.append(str(exc))

    sim.process(fetch())
    sim.run(until=30.0)
    assert len(errors) == 1 and "timed out" in errors[0]


def test_https_end_to_end():
    sim = Simulator()
    topo = StarTopology(sim)
    client_host = class_a_host(sim, "browser")
    server_host = class_b_host(sim, "webserver")
    topo.attach(client_host)
    topo.attach(server_host)
    server = HttpServer(server_host, port=443, tls=TlsLibrary(seed=b"srv"))
    server.add_resource("/secret", b"classified")
    server.start()
    http = HttpClient(client_host, tls=TlsLibrary(seed=b"cli"))
    response = run_fetch(sim, http, server_host.address, "/secret", port=443)
    assert response.status == 200 and response.body == b"classified"


def test_page_load_fetches_all_objects(web):
    sim, client_host, server_host, server = web
    for index in range(8):
        server.add_resource(f"/obj{index}", bytes(100 * (index + 1)))
    paths = ["/index.html"] + [f"/obj{i}" for i in range(8)]
    box = {}

    def load():
        box["elapsed"] = yield sim.process(
            HttpClient(client_host).load_page(server_host.address, paths, concurrency=3)
        )

    proc = sim.process(load())
    sim.run(until=sim.now + 60.0)
    assert proc.triggered and proc.exception is None
    assert box["elapsed"] > 0
    assert server.requests_served == len(paths)


def test_page_load_think_time_extends_duration(web):
    sim, client_host, server_host, server = web
    for index in range(4):
        server.add_resource(f"/t{index}", b"x")
    paths = ["/index.html"] + [f"/t{i}" for i in range(4)]

    durations = []
    for think in (0.0, 0.1):
        box = {}

        def load(think=think, box=box):
            box["elapsed"] = yield sim.process(
                HttpClient(client_host).load_page(server_host.address, paths, 2, think_time_s=think)
            )

        proc = sim.process(load())
        sim.run(until=sim.now + 60.0)
        assert proc.exception is None
        durations.append(box["elapsed"])
    assert durations[1] > durations[0] + 0.2  # think time dominates


def test_parse_response_header_errors():
    with pytest.raises(HttpError):
        _parse_response_header(b"garbage\r\n\r\n")
    status, length = _parse_response_header(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n")
    assert (status, length) == (200, 5)


# ----------------------------------------------------------------------
# Alexa page population
# ----------------------------------------------------------------------
def test_alexa_population_deterministic():
    a = alexa_top_pages(50)
    b = alexa_top_pages(50)
    assert [p.total_bytes for p in a] == [p.total_bytes for p in b]


def test_alexa_population_statistics():
    pages = alexa_top_pages(300)
    totals = sorted(p.total_bytes for p in pages)
    median = totals[len(totals) // 2]
    assert 300_000 < median < 5_000_000  # ~1.4 MB-ish median page weight
    assert all(3 <= len(p.object_sizes) <= 150 for p in pages)
    assert all(p.total_bytes >= 20_000 for p in pages)


def test_alexa_paths_match_objects():
    page = alexa_top_pages(3)[0]
    assert len(page.paths()) == len(page.object_sizes)
    assert page.paths()[0].endswith("obj0")
