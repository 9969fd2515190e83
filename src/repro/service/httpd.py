"""A zero-dependency HTTP face for a running delivery daemon.

Endpoints (loopback only, stdlib ``http.server``):

* ``GET /metrics`` — the live Prometheus exposition
  (:func:`repro.obs.render_prometheus`), so ``repro metrics --url`` can
  scrape a serving process.
* ``GET /healthz`` — liveness plus the current mutation epoch.
* ``GET /stats`` — the daemon's operational snapshot
  (:meth:`~repro.service.daemon.DeliveryDaemon.stats`).
* ``POST /deliver`` — submit one delivery (JSON body
  ``{"report", "user", "purpose"}``, all strings). Non-blocking: a full
  queue answers ``503`` with the typed shed error, mirroring
  :class:`~repro.errors.ServiceOverloadedError`.

``POST /deliver`` fails closed: every request gets a JSON answer. ``400``
for a body that is not a JSON object of string fields, a bad or negative
``Content-Length``, or an unknown user (:class:`~repro.errors.PolicyError`);
``413`` for a body over :data:`MAX_BODY_BYTES`; ``503`` when the daemon
sheds or is stopped; ``504`` when the delivery outlasts
:data:`DELIVERY_TIMEOUT_S`; ``500`` with the error's type name for
anything else the delivery raised.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import PolicyError, ServiceError, ServiceOverloadedError
from repro.service.daemon import DeliveryDaemon

__all__ = ["MAX_BODY_BYTES", "ServiceHTTPServer", "start_http_server"]

#: Largest ``POST /deliver`` body accepted; longer ones get ``413``.
MAX_BODY_BYTES = 64 * 1024

#: How long ``POST /deliver`` waits for its delivery before ``504``.
DELIVERY_TIMEOUT_S = 60.0


class ServiceHTTPServer(ThreadingHTTPServer):
    """Loopback HTTP server bound to one daemon."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], handler, daemon: DeliveryDaemon):
        super().__init__(address, handler)
        self.delivery_daemon = daemon


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    # -- plumbing -------------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        pass  # the daemon's metrics are its access log

    def _respond(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _json(self, status: int, obj: object) -> None:
        self._respond(status, json.dumps(obj, indent=2), "application/json")

    # -- routes ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        daemon = self.server.delivery_daemon
        if self.path == "/metrics":
            from repro.obs import get_registry, render_prometheus

            self._respond(
                200, render_prometheus(get_registry()), "text/plain; version=0.0.4"
            )
        elif self.path == "/healthz":
            self._json(
                200,
                {
                    "ok": daemon.running,
                    "epoch": daemon.state.epoch,
                    "queue_depth": daemon.stats()["queue_depth"],
                },
            )
        elif self.path == "/stats":
            self._json(200, daemon.stats())
        else:
            self._json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        if self.path != "/deliver":
            self._json(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._json(400, {"error": "Content-Length must be an integer"})
            return
        if length < 0:
            self._json(400, {"error": "Content-Length must not be negative"})
            return
        if length > MAX_BODY_BYTES:
            self._json(
                413, {"error": f"body over the {MAX_BODY_BYTES}-byte limit"}
            )
            return
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError too
            self._json(400, {"error": f"body is not JSON ({exc})"})
            return
        fields = ("report", "user", "purpose")
        if not isinstance(body, dict) or not all(
            isinstance(body.get(f), str) for f in fields
        ):
            self._json(
                400,
                {"error": "body must be a JSON object with string "
                          "report/user/purpose fields"},
            )
            return
        report, user, purpose = (body[f] for f in fields)
        try:
            future = self.server.delivery_daemon.submit_delivery(
                report, user=user, purpose=purpose, wait=False
            )
        except ServiceError as exc:  # a full queue, or a stopped daemon
            shed = isinstance(exc, ServiceOverloadedError)
            self._json(
                503, {"error": str(exc), "outcome": "shed" if shed else "stopped"}
            )
            return
        try:
            result = future.result(timeout=DELIVERY_TIMEOUT_S)
        except FutureTimeoutError:
            self._json(504, {"error": "delivery timed out", "outcome": "timeout"})
            return
        except PolicyError as exc:  # e.g. an unknown user
            self._json(400, {"error": str(exc), "type": "PolicyError"})
            return
        except Exception as exc:  # noqa: BLE001 - every request gets an answer
            self._json(500, {"error": str(exc), "type": type(exc).__name__})
            return
        self._json(
            200,
            {
                "outcome": result.outcome,
                "epoch": result.epoch,
                "detail": result.detail,
                "rows": len(result.instance) if result.instance is not None else 0,
            },
        )


def start_http_server(
    daemon: DeliveryDaemon, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Serve ``daemon`` over HTTP in a background thread.

    ``port=0`` binds an ephemeral port; read it back from
    ``server.server_address``. Call ``server.shutdown()`` to stop.
    """
    server = ServiceHTTPServer((host, port), _Handler, daemon)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server
