"""Live telemetry endpoint for the traffic service (stdlib only).

A tiny :class:`http.server.ThreadingHTTPServer` running in a daemon
thread next to the simulation loop:

* ``GET /metrics``  — Prometheus text format, rendered from the live
  :class:`~repro.telemetry.registry.MetricRegistry` on every scrape
  (the existing :func:`~repro.telemetry.exporters.prometheus_text`
  exporter — no second metrics pipeline);
* ``GET /healthz``  — one JSON object: service phase
  (``serving``/``draining``/``stopped``), current cycle, in-flight and
  delivered packet counts, and the admission counter snapshot.

The handler only ever *reads*: the registry's metric objects are
mutated by the simulation thread with plain int/float writes, so a
scrape observes a consistent-enough point-in-time view without locks
(exactly the Prometheus client-library convention).  Nothing here can
block or slow the simulation loop.

Binding to port 0 picks an ephemeral port; the bound port is exposed
as :attr:`TelemetryEndpoint.port` and printed by the CLI so smoke
tests can scrape it (``benchmarks/bench_serve.py``).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from ..telemetry.exporters import prometheus_text
from ..telemetry.registry import MetricRegistry


class _Handler(BaseHTTPRequestHandler):
    """Routes /metrics and /healthz; everything else is 404."""

    # Set per-server via the factory in TelemetryEndpoint.start().
    registry: MetricRegistry
    health: Callable[[], dict]

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler casing)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = prometheus_text(self.registry).encode()
            self._reply(200, "text/plain; version=0.0.4", body)
        elif path == "/healthz":
            body = (
                json.dumps(self.health(), sort_keys=True) + "\n"
            ).encode()
            self._reply(200, "application/json", body)
        else:
            self._reply(404, "text/plain", b"not found\n")

    def _reply(self, status: int, ctype: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args) -> None:  # pragma: no cover
        pass  # scrapes must not spam the service's stdout


class TelemetryEndpoint:
    """The /metrics + /healthz server, owned by the service loop."""

    def __init__(
        self,
        registry: MetricRegistry,
        health: Callable[[], dict],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.registry = registry
        self.health = health
        self.host = host
        self.port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "TelemetryEndpoint":
        handler = type(
            "_BoundHandler",
            (_Handler,),
            {"registry": self.registry, "health": staticmethod(self.health)},
        )
        self._server = ThreadingHTTPServer((self.host, self.port), handler)
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
