"""JSON HTTP gateway over a :class:`~repro.serve.shard.ShardRouter`.

``python -m repro.serve.gateway`` is the front door of the sharded serving
tier: a stdlib :class:`~http.server.ThreadingHTTPServer` (one handler
thread per connection, same shape as the telemetry exporter) that turns

- ``POST /forecast`` — body ``{"window": [[...]], "deadline_ms": 250}``
  (a raw full-grid history window, nested lists of finite, non-negative
  counts; anything else is a 400) into the merged
  :class:`~repro.serve.shard.ShardedResponse` as JSON: full-grid ``demand``
  plus the per-shard reports, degradation and failed-shard list, verbatim.
  The body must declare its ``Content-Length``: a missing, malformed or
  negative one is a 400, one above ``MAX_BODY_BYTES`` a 413, both answered
  before any of the body is read;
- ``GET /healthz`` — liveness plus shard count;
- ``GET /shards`` — the router's static shard map (regions, tiers);
- ``GET /adaptation`` — per-shard online-adaptation state (serving
  generations plus each attached controller's trigger/swap/failure
  counts; ``{"enabled": false, ...}`` when no controller is attached).

Every request runs under a ``gateway.request`` span, so recorded traces
nest gateway → ``serve.route`` → ``serve.request`` → one ``serve.shard``
span per region, and increments ``gateway_requests_total{route=…,status=…}``.

Layering (scripts/check_layering.py rule 12): this module speaks stdlib
HTTP on one side and ``repro.serve`` on the other — it imports nothing
else, not even numpy (the router accepts nested lists; responses serialize
through ``as_dict``). JSON floats round-trip exactly (``repr`` ↔ parse), so
the demand a client reads is bit-identical to the router's merge.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import urlparse

from repro.serve.shard import (
    ShardRouter,
    demo_spec,
    obs_metrics,
    synthetic_router,
    tracing,
)


# Largest request body the gateway reads; a paper-geometry window
# (8×16×12×4 counts) is well under 1 MB of JSON.
MAX_BODY_BYTES = 8 << 20


def _body_length_error(header: Optional[str]) -> Optional[Tuple[int, str]]:
    """``(status, message)`` when ``Content-Length`` forbids reading the body.

    A missing, non-integer or negative value is a 400 (``read(-1)`` would
    wait for the client to close); one above :data:`MAX_BODY_BYTES` is a 413.
    """
    if header is None or not re.fullmatch(r"[0-9]+", header.strip()):
        return 400, f"Content-Length must be a non-negative integer, got {header!r}"
    if int(header) > MAX_BODY_BYTES:
        return 413, f"body of {int(header)} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
    return None


def _deadline_seconds(body: dict) -> Optional[float]:
    """The body's ``deadline_ms`` in seconds, or ``None`` when absent.

    Raises ``ValueError`` unless it is a finite, non-negative JSON number
    (``json.loads`` also yields NaN and infinities).
    """
    deadline_ms = body.get("deadline_ms")
    if deadline_ms is None:
        return None
    if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
        raise ValueError(f'"deadline_ms" must be a number, got {deadline_ms!r}')
    try:
        milliseconds = float(deadline_ms)
    except OverflowError:  # an integer too large for a float
        milliseconds = math.inf
    if not math.isfinite(milliseconds) or milliseconds < 0:
        raise ValueError(
            f'"deadline_ms" must be finite and non-negative, got {deadline_ms!r}'
        )
    return milliseconds / 1e3


class _GatewayHandler(BaseHTTPRequestHandler):
    server_version = "repro-gateway/1.0"

    # ------------------------------------------------------------------
    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except BrokenPipeError:  # client went away; nothing to salvage
            pass

    def _route(self) -> str:
        path = urlparse(self.path).path
        return path.rstrip("/") or "/"

    def _count(self, route: str, status: int) -> None:
        obs_metrics.counter(
            "gateway_requests_total", route=route, status=str(status)
        ).inc()

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        route = self._route()
        router: ShardRouter = self.server.router
        with tracing.span("gateway.request", route=route, method="GET"):
            if route == "/healthz":
                status, payload = 200, {
                    "status": "ok",
                    "shards": len(router.regions),
                    "grid": list(router.grid_shape),
                }
            elif route == "/shards":
                status, payload = 200, {"shards": router.describe()}
            elif route == "/adaptation":
                status, payload = 200, router.adaptation_status()
            else:
                status, payload = 404, {"error": f"unknown route {route!r}"}
        self._send_json(payload, status)
        self._count(route, status)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        route = self._route()
        router: ShardRouter = self.server.router
        if route != "/forecast":
            self._send_json({"error": f"unknown route {route!r}"}, 404)
            self._count(route, 404)
            return
        header = self.headers.get("Content-Length")
        rejected = _body_length_error(header)
        if rejected is not None:
            status, message = rejected
            self._send_json({"error": message}, status)
            self._count(route, status)
            return
        raw = self.rfile.read(int(header))
        began = time.monotonic()
        with tracing.span("gateway.request", route=route, method="POST"):
            try:
                body = json.loads(raw or b"null")
            except ValueError:
                self._send_json({"error": "request body must be JSON"}, 400)
                self._count(route, 400)
                return
            if not isinstance(body, dict) or "window" not in body:
                self._send_json({"error": 'body must carry a "window" field'}, 400)
                self._count(route, 400)
                return
            try:
                deadline = _deadline_seconds(body)
                response = router.forecast(body["window"], deadline_seconds=deadline)
            except (TypeError, ValueError) as error:
                self._send_json({"error": str(error)}, 400)
                self._count(route, 400)
                return
            except Exception as error:  # noqa: BLE001 - surface, don't crash
                self._send_json({"error": str(error)}, 500)
                self._count(route, 500)
                return
        obs_metrics.histogram("gateway_latency_seconds").observe(
            time.monotonic() - began
        )
        self._send_json(response.as_dict(), 200)
        self._count(route, 200)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # metrics + traces cover it; don't spam stderr per request


class ForecastGateway:
    """The HTTP server wrapping one router; start/stop or serve forever."""

    def __init__(self, router: ShardRouter, host: str = "127.0.0.1", port: int = 0):
        self.router = router
        self._server = ThreadingHTTPServer((host, port), _GatewayHandler)
        self._server.daemon_threads = True
        self._server.router = router  # handlers reach it via self.server
        self._thread = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "ForecastGateway":
        import threading

        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-gateway", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "ForecastGateway":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


# ----------------------------------------------------------------------
def _selfcheck(gateway: ForecastGateway, sample_window) -> int:
    """POST one real window through the gateway's own HTTP surface."""
    import urllib.request

    body = json.dumps({"window": sample_window}).encode("utf-8")
    request = urllib.request.Request(
        f"{gateway.url}/forecast",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as reply:
        payload = json.loads(reply.read())
    with urllib.request.urlopen(f"{gateway.url}/healthz", timeout=30) as reply:
        health = json.loads(reply.read())
    shards = payload["shards"]
    if health["status"] != "ok" or not shards or payload["failed_shards"]:
        print(f"selfcheck FAILED: health={health} shards={shards}", file=sys.stderr)
        return 1
    print(
        f"selfcheck ok: {len(shards)} shard(s), demand grid "
        f"{len(payload['demand'])}×{len(payload['demand'][0])}"
        f"×{len(payload['demand'][0][0])}, degraded={payload['degraded']}"
    )
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument("--model", default="BikeCAP", help="primary tier (registry name)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--grid", type=int, nargs=2, default=(6, 6))
    parser.add_argument("--history", type=int, default=6)
    parser.add_argument("--horizon", type=int, default=3)
    parser.add_argument("--features", type=int, default=4)
    parser.add_argument("--slots", type=int, default=80, help="simulated time slots")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="cap on a batch's straggler wait after its first request; the "
        "wait ends sooner once every caller in flight has submitted",
    )
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="start, POST one window to /forecast via HTTP, report, exit",
    )
    args = parser.parse_args(argv)

    spec = demo_spec(
        args.model, history=args.history, horizon=args.horizon, seed=args.seed
    )
    router, dataset = synthetic_router(
        spec,
        grid=tuple(args.grid),
        num_shards=args.shards,
        features=args.features,
        slots=args.slots,
        max_batch=args.max_batch,
        max_wait_seconds=args.max_wait_ms / 1e3,
    )
    with router:
        with ForecastGateway(router, host=args.host, port=args.port) as gateway:
            if args.selfcheck:
                return _selfcheck(gateway, dataset.test_view().raw_x()[0].tolist())
            print(
                f"gateway live at {gateway.url} "
                f"(/forecast, /healthz, /shards; {args.shards} shards)"
            )
            try:
                gateway._thread.join()
            except KeyboardInterrupt:
                print("shutting down")
    return 0


__all__ = ["ForecastGateway", "main"]


if __name__ == "__main__":
    sys.exit(main())
