"""Shared test configuration.

The replay result cache (:mod:`repro.experiments.resultcache`) is
redirected to a session-private temporary directory: the tests exercise
the replays themselves, and a stale entry left in the user's
``~/.cache/repro/results`` by an earlier (differently-coded) run could
mask a real replay.  The *trace* cache stays shared — traces are pure
functions of their ``(app, num_procs, seed, scale)`` key, and rebuilding
them would only slow the suite down.

The variable is set in ``os.environ`` directly (not per-test
monkeypatching) so the spawned worker processes of the parallel-harness
tests inherit it too.
"""

import os
import socket

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    previous = os.environ.get("REPRO_RESULT_CACHE")
    os.environ["REPRO_RESULT_CACHE"] = str(
        tmp_path_factory.mktemp("result-cache")
    )
    yield
    if previous is None:
        os.environ.pop("REPRO_RESULT_CACHE", None)
    else:
        os.environ["REPRO_RESULT_CACHE"] = previous


#: Past the 64 KiB line limit of the serving tiers' ``StreamReader``.
_OVERLONG = b"a" * (70 * 1024)

#: Requests the service's reader cannot frame.  Both tiers must answer
#: each with a 400 and ``Connection: close``, never a silent hang-up.
UNFRAMEABLE = {
    "malformed-request-line": b"NONSENSE\r\n\r\n",
    "content-length-not-a-number":
        b"POST /v1/replay HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    "content-length-negative":
        b"POST /v1/replay HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    "header-line-over-limit":
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + _OVERLONG + b"\r\n\r\n",
    "request-line-over-limit":
        b"GET /" + _OVERLONG + b" HTTP/1.1\r\n\r\n",
}


def _raw_exchange(port: int, data: bytes) -> tuple[int | None, dict, bytes]:
    """Send ``data`` to ``127.0.0.1:port`` over a plain socket and
    parse whatever the peer writes before it closes.

    Returns ``(status, headers, body)``; status is None when the peer
    closed without answering.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        try:
            sock.sendall(data)
        except OSError:
            pass  # the peer may answer and close before the tail lands
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin1").split("\r\n")
    parts = lines[0].split()
    status = int(parts[1]) if len(parts) > 1 else None
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


@pytest.fixture
def raw_http():
    """``raw_http(port, data) -> (status, headers, body)``: one
    raw-socket exchange, for input no well-behaved client sends
    (blocking; run it off the event loop when the server shares the
    thread)."""
    return _raw_exchange


@pytest.fixture(params=sorted(UNFRAMEABLE))
def unframeable(request) -> bytes:
    """Each request of :data:`UNFRAMEABLE` in turn."""
    return UNFRAMEABLE[request.param]
