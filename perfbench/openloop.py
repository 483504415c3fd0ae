"""Load generator for the serve-zipf workload.

Open loop (a ``rate``): request ``i`` of a phase is due at
``t0 + i / rate`` (absolute times, so sleeping never accumulates drift).
At most :data:`CONNECTIONS` keep-alive connections (``nproc``, at most
2) send; a request whose connection is still busy when it falls due
waits, and that wait counts: latency runs from the due time, not from
the send.

Closed loop (``rate=None``): each connection sends its next request as
soon as the previous one is answered, so the fleet runs saturated; a
request is due when it is sent.

A request that fails in any way (connection error, timeout, a non-200
status such as 429, a wrong result) is kept with an infinite latency, so
it misses every latency limit.
"""

from __future__ import annotations

import http.client
import os
import threading
import time
from contextlib import nullcontext
from time import perf_counter

from repro.service.client import ServiceClient
from repro.service.protocol import PROTOCOL_VERSION

CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Seconds a request may take before it counts as failed.
REQUEST_TIMEOUT_S = 30.0


class Outcome:
    __slots__ = ("due", "start", "end", "ok", "tier", "server_ms", "status")

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.end - self.due) if self.ok else float("inf")

    @property
    def late_ms(self) -> float:
        return 1000.0 * (self.start - self.due)


def tier_of(body: dict) -> str:
    """Which layer answered: the router's memory tier, a shard's result
    cache, a single-flight follower, or a fresh execution."""
    if body.get("tier") == "router":
        return "router-hit"
    if body.get("coalesced"):
        return "coalesced"
    return "shard-hit" if body.get("cached") else "executed"


def open_loop(port: int, specs: list, rate: float | None, check,
              tracer=None):
    """Send ``specs`` at ``rate`` per second, or closed-loop when ``rate``
    is None; returns ``(outcomes, backlog_max)`` where backlog counts
    requests due but not yet sent (always 0 in closed loop)."""
    n = len(specs)
    outcomes: list[Outcome | None] = [None] * n
    lock = threading.Lock()
    cursor = [0]
    backlog = [0]
    errors: list[BaseException] = []
    t0 = perf_counter() + 0.05

    def worker():
        client = ServiceClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= n:
                        return
                    cursor[0] = i + 1
                out = Outcome()
                if rate is None:
                    out.due = perf_counter()
                else:
                    out.due = t0 + i / rate
                    wait = out.due - perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                out.start = perf_counter()
                if rate is not None:
                    waiting = int((out.start - t0) * rate) - i
                    with lock:
                        backlog[0] = max(backlog[0], waiting)
                span = (tracer.span("loadgen.request", op=i)
                        if tracer is not None else nullcontext())
                with span:
                    try:
                        out.status, _headers, body = client.request(
                            "POST", "/v1/replay",
                            {"v": PROTOCOL_VERSION, "spec": specs[i]})
                    except (OSError, http.client.HTTPException, ValueError):
                        out.status, body = 0, None
                out.end = perf_counter()
                out.ok = (out.status == 200 and isinstance(body, dict)
                          and check(specs[i], body.get("result")))
                out.tier = tier_of(body) if out.ok else "failed"
                out.server_ms = body.get("elapsed_ms") if out.ok else None
                outcomes[i] = out
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
        finally:
            client.close()

    # Closed loop: give each request a generous 10 ms.
    length = n / rate if rate is not None else n * 0.01
    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S + length + 60.0)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
    if errors:
        raise errors[0]
    return outcomes, backlog[0]
