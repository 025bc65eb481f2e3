"""HTTP/HTTPS client with page-load support.

``get()`` fetches one resource; ``load_page()`` fetches a page's main
document plus all its objects over a configurable number of concurrent
connections — the page-load-time model behind Fig 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.netsim.addresses import IPv4Address
from repro.netsim.host import Host
from repro.netsim.tcp import TcpError
from repro.tlslib.library import TlsAlert, TlsLibrary


class HttpError(RuntimeError):
    """Request-level failure."""


@dataclass
class HttpResponse:
    status: int
    body: bytes
    elapsed_s: float


class HttpClient:
    """Issues GET requests from a host, optionally over TLS."""

    def __init__(self, host: Host, tls: Optional[TlsLibrary] = None) -> None:
        self.host = host
        self.sim = host.sim
        self.tls = tls

    # ------------------------------------------------------------------
    def get(self, server: IPv4Address, path: str, port: Optional[int] = None, server_name: str = ""):
        """Process generator: fetch one resource; returns HttpResponse."""
        port = port or (443 if self.tls is not None else 80)
        started = self.sim.now
        conn = None
        try:
            conn = yield self.sim.process(self.host.stack.tcp.connect(server, port))
            if self.tls is not None:
                stream = yield from self.tls.client_handshake(conn, server_name=server_name)
            else:
                from repro.http.server import _PlainStream

                stream = _PlainStream(conn)
            stream.send(
                f"GET {path} HTTP/1.1\r\nHost: {server_name or server}\r\nConnection: close\r\n\r\n".encode()
            )
            header = yield from stream.read_until(b"\r\n\r\n")
            status, length = _parse_response_header(header)
            body = yield from stream.read_exactly(length)
        except (TcpError, TlsAlert) as exc:
            raise HttpError(str(exc)) from exc
        finally:
            if conn is not None:
                conn.close()
        return HttpResponse(status=status, body=body, elapsed_s=self.sim.now - started)

    # ------------------------------------------------------------------
    def load_page(
        self,
        server: IPv4Address,
        paths: List[str],
        concurrency: int = 6,
        think_time_s: float = 0.0,
    ):
        """Process generator: fetch ``paths`` with bounded concurrency.

        Returns the total elapsed time — the page load time.  The first
        path is the main document and is fetched before the rest (as a
        browser must parse HTML before discovering subresources).
        ``think_time_s`` models per-object browser work (parse, style,
        script execution) serialised after each fetch on its connection.
        """
        started = self.sim.now
        if not paths:
            return 0.0
        yield self.sim.process(self.get(server, paths[0]))
        if think_time_s:
            yield self.sim.timeout(think_time_s)
        pending = list(paths[1:])

        def slot_worker():
            while pending:
                path = pending.pop(0)
                yield self.sim.process(self.get(server, path))
                if think_time_s:
                    yield self.sim.timeout(think_time_s)

        workers = [self.sim.process(slot_worker()) for _ in range(min(concurrency, max(1, len(pending))))]
        results = yield self.sim.all_of(workers)
        del results
        return self.sim.now - started


def _parse_response_header(header: bytes) -> Tuple[int, int]:
    lines = header.split(b"\r\n")
    try:
        status = int(lines[0].split(b" ")[1])
    except (IndexError, ValueError) as exc:
        raise HttpError(f"malformed status line {lines[0]!r}") from exc
    length = 0
    for line in lines[1:]:
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    return status, length
