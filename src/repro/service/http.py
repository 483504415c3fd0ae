"""The HTTP core shared by ``repro-serve`` and ``repro-cluster``.

Both tiers speak the same small subset of HTTP/1.1 — one request line,
headers, an optional JSON body, keep-alive — and share one front door:

* **Framing** — :func:`read_request`, :func:`write_response`, and
  :func:`parse_json`.  A request the reader cannot frame (a request or
  header line over the stream limit, a ``Content-Length`` that is not a
  non-negative integer or exceeds :data:`MAX_BODY_BYTES`, a malformed
  request line) is answered ``400`` with ``Connection: close``.
* **Outbound requests** — :func:`request`, one request over a fresh
  connection; the async client and the router's shard forwards, health
  probes, and ``/metrics`` fetches all go through it.
* **The front door** — :class:`HttpService`: start, ``serve_until``
  and the drain skeleton, the keep-alive connection loop, a route table
  with uniform 404/405 answers, the admission gate (503 while draining,
  429 + ``Retry-After`` past the tier's bound), and responders that
  count ``<tier>_requests_total``.
* **Single-flight** — :class:`SingleFlight`: concurrent identical
  requests share one leader's outcome, counted as leaders and
  followers in the tier's metric.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Awaitable, Callable, NamedTuple

from repro.service import protocol
from repro.service.protocol import ServiceError

#: Upper bound on request bodies; service requests are a few hundred
#: bytes, so anything near this is a client bug, not a workload.
MAX_BODY_BYTES = 1 << 20

#: Seconds a 429'd client is told to wait before retrying.
RETRY_AFTER_SECONDS = 1

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class Request(NamedTuple):
    """One framed request (method upper-cased, query string dropped)."""

    method: str
    path: str
    headers: dict
    body: bytes


#: What a route handler returns: ``(status, payload, extra_headers)``.
#: A dict payload is sent as JSON, a str as Prometheus text.
Reply = tuple[int, object, tuple[str, ...]]


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Read one request; None on a cleanly closed connection.

    Raises :class:`ServiceError` on input that cannot be framed.
    ``StreamReader.readline`` reports a line past the stream limit as
    ``ValueError``, which is a 400 here like any other framing error.
    """
    try:
        request_line = await reader.readline()
    except ConnectionError:
        return None
    except ValueError:
        raise ServiceError("request line too long") from None
    if not request_line or request_line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, _version = request_line.decode("latin1").split()
    except ValueError:
        raise ServiceError("malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise ServiceError("header line too long") from None
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        length = -1
    if length < 0:
        raise ServiceError(f"invalid Content-Length: {raw_length!r}")
    if length > MAX_BODY_BYTES:
        raise ServiceError(f"request body over {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return Request(method.upper(), path, headers, body)


async def write_response(writer: asyncio.StreamWriter, status: int,
                         body: bytes, content_type: str,
                         keep_alive: bool = True,
                         extra_headers: tuple[str, ...] = ()) -> None:
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
        *extra_headers,
    ]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin1") + body)
    try:
        await writer.drain()
    except (ConnectionError, OSError):
        pass  # client disconnected before the response landed


def parse_json(body: bytes) -> dict:
    if not body:
        raise ServiceError("empty request body (expected JSON)")
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise ServiceError(f"invalid JSON body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object")
    return payload


# ----------------------------------------------------------------------
# Outbound requests
# ----------------------------------------------------------------------

async def request(host: str, port: int, method: str, path: str,
                  body: bytes = b"", timeout: float | None = None
                  ) -> tuple[int, dict, object]:
    """One request over a fresh connection.

    Returns ``(status, headers, payload)``: JSON bodies decoded, any
    other body as text.  An empty, truncated, or garbled response
    raises ``ConnectionError``; ``timeout`` (seconds, whole exchange)
    raises ``TimeoutError``.
    """
    head = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}:{port}",
        "Connection: close",
        f"Content-Length: {len(body)}",
    ]
    if body:
        head.append("Content-Type: application/json")

    async def exchange() -> bytes:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
            await writer.drain()
            return await reader.read(-1)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    raw = await asyncio.wait_for(exchange(), timeout)
    header_blob, _, rest = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin1").split("\r\n")
    try:
        status = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ConnectionError(
            f"malformed response from {host}:{port}"
        ) from None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    payload: object = rest.decode("utf-8", "replace")
    if headers.get("content-type", "").startswith("application/json"):
        try:
            payload = json.loads(rest) if rest else {}
        except ValueError:
            raise ConnectionError(
                f"truncated JSON response from {host}:{port}"
            ) from None
    return status, headers, payload


# ----------------------------------------------------------------------
# Single-flight
# ----------------------------------------------------------------------

class SingleFlight:
    """Concurrent identical requests share one execution.

    :meth:`join` hands a follower the in-flight leader's future (None
    when no leader holds the key); :meth:`lead` runs the work as the
    key's leader and resolves that future with its outcome, error
    included.  ``count(role)`` records each leader and follower.
    """

    def __init__(self, count: Callable[[str], None]):
        self._count = count
        self._inflight: dict[str, asyncio.Future] = {}

    def join(self, key: str) -> asyncio.Future | None:
        future = self._inflight.get(key)
        if future is not None:
            self._count("follower")
        return future

    async def lead(self, key: str, work: Callable[[], Awaitable]):
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._count("leader")
        try:
            outcome = await work()
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # mark retrieved; followers still read it
            raise
        else:
            future.set_result(outcome)
            return outcome
        finally:
            self._inflight.pop(key, None)


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Route:
    """One endpoint: the method it accepts and the handler answering it.

    ``admitted`` routes pass the admission gate; their handler's
    :class:`ServiceError` is a 400 and any other exception a 500.
    """

    method: str
    handler: Callable[[Request], Awaitable[Reply]]
    admitted: bool = False


class HttpService:
    """The listening side both tiers share (see module docstring).

    A tier subclass sets the class attributes below, provides
    ``config`` (``host``/``port``), ``registry`` and
    :attr:`admission_limit`, adds its own routes to :attr:`routes`, and
    may extend :meth:`_health_fields`, :meth:`_metrics_text` and
    :meth:`_teardown`.
    """

    #: Names the tier in error messages ("server is draining").
    tier: str
    requests_metric: str
    requests_help: str
    singleflight_metric: str
    singleflight_help: str
    #: Gauge of admitted requests; None keeps no gauge.
    depth_metric: str | None = None

    def __init__(self):
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._started_at = 0.0
        self._admitted = 0
        self._served = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._connections: set[asyncio.StreamWriter] = set()
        self._flights = SingleFlight(self._count_singleflight)
        self.routes: dict[str, Route] = {
            "/healthz": Route("GET", self._serve_health),
            "/metrics": Route("GET", self._serve_metrics),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        assert self._server is not None, f"{self.tier} not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def served(self) -> int:
        """Admitted requests answered 200 so far."""
        return self._served

    @property
    def admission_limit(self) -> int:
        raise NotImplementedError

    async def start(self) -> None:
        """Bind the listening socket (tiers extend this)."""
        self._started_at = time.time()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve until ``stop`` is set, then drain gracefully."""
        if self._server is None:
            await self.start()
        await stop.wait()
        await self.drain()

    async def run(self, ready_line: Callable[[], str]) -> None:
        """Start, print ``ready_line()`` to stdout, serve until
        SIGTERM/SIGINT, then drain — the console scripts' main loop."""
        await self.start()
        print(ready_line(), flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix event loops: Ctrl-C still raises
        await self.serve_until(stop)

    async def drain(self) -> None:
        """Stop accepting, finish every admitted request, close down.

        Idempotent.  The drain order is the graceful-shutdown contract:
        the listening socket closes first (new connections are refused),
        admitted requests run to completion and get their responses,
        the tier tears down (:meth:`_teardown`), then idle keep-alive
        connections are closed.
        """
        if self._draining:
            await self._idle.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        await self._teardown()
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()

    async def _teardown(self) -> None:
        """Tier shutdown after the last admitted request completed."""

    # ------------------------------------------------------------------
    # Connections, routing, admission
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ServiceError as exc:
                    body = json.dumps(
                        protocol.error_response(str(exc))
                    ).encode()
                    await write_response(writer, 400, body,
                                         "application/json",
                                         keep_alive=False)
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive or self._draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request, writer) -> bool:
        """Route one request; returns whether to keep the connection."""
        path = request.path
        keep_alive = request.headers.get("connection", "").lower() != "close"
        route = self.routes.get(path)
        if route is None:
            reply = 404, protocol.error_response(
                f"no such endpoint: {path}"), ()
        elif request.method != route.method:
            reply = 405, protocol.error_response(f"use {route.method}"), ()
        elif not route.admitted:
            reply = await route.handler(request)
        elif self._draining:
            message = f"{self.tier} is draining"
            reply = 503, protocol.error_response(message), ()
        elif self._admitted >= self.admission_limit:
            # Backpressure: shed at admission rather than queueing
            # without bound.  The client is told when to come back.
            reply = 429, protocol.error_response(
                f"admission queue full ({self.admission_limit} in "
                "flight); retry later"
            ), (f"Retry-After: {RETRY_AFTER_SECONDS}",)
        else:
            # The slot is held until the response is written: a drain
            # waits for every admitted request's answer, not just its
            # computation.
            self._admitted += 1
            self._idle.clear()
            self._gauge_depth()
            try:
                reply = await self._answer_admitted(route, request)
                return await self._respond(writer, path, *reply, keep_alive)
            finally:
                self._admitted -= 1
                self._gauge_depth()
                if self._admitted == 0:
                    self._idle.set()
        return await self._respond(writer, path, *reply, keep_alive)

    async def _answer_admitted(self, route: Route, request: Request
                               ) -> Reply:
        try:
            reply = await route.handler(request)
        except ServiceError as exc:
            return 400, protocol.error_response(str(exc)), ()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            message = f"internal error (see {self.tier} log)"
            return 500, protocol.error_response(message), ()
        if reply[0] == 200:
            self._served += 1
        return reply

    async def _respond(self, writer, endpoint: str, status: int,
                       payload, extra_headers: tuple[str, ...],
                       keep_alive: bool) -> bool:
        """Write one reply and count it; returns whether to keep the
        connection (never across a 503 or once draining)."""
        keep = keep_alive and status != 503 and not self._draining
        if isinstance(payload, str):
            body = payload.encode()
            content_type = "text/plain; version=0.0.4"
        else:
            body = json.dumps(payload, separators=(",", ":")).encode()
            content_type = "application/json"
        await write_response(writer, status, body, content_type,
                             keep_alive=keep, extra_headers=extra_headers)
        self.registry.counter(
            self.requests_metric, self.requests_help
        ).inc(endpoint=endpoint, status=status)
        return keep

    # ------------------------------------------------------------------
    # The endpoints every tier answers itself
    # ------------------------------------------------------------------

    async def _serve_health(self, request: Request) -> Reply:
        from repro.common.version import package_version

        return 200, {
            "status": "draining" if self._draining else "ok",
            "version": package_version(),
            "protocol_version": protocol.PROTOCOL_VERSION,
            **self._health_fields(),
            "queue_depth": self._admitted,
            "served": self._served,
            "uptime_s": round(time.time() - self._started_at, 3),
        }, ()

    def _health_fields(self) -> dict:
        """Tier-specific fields of the ``/healthz`` document."""
        return {}

    async def _serve_metrics(self, request: Request) -> Reply:
        return 200, await self._metrics_text(), ()

    async def _metrics_text(self) -> str:
        return self.registry.render_prometheus()

    def _count_singleflight(self, role: str) -> None:
        self.registry.counter(
            self.singleflight_metric, self.singleflight_help
        ).inc(role=role)

    def _gauge_depth(self) -> None:
        if self.depth_metric is not None:
            self.registry.gauge(
                self.depth_metric, "requests currently admitted"
            ).set(self._admitted)
