"""The ``repro-serve`` console entry point.

Usage::

    repro-serve [--host H] [--port P] [--max-queue N] [--jobs N]
                [--telemetry-dir DIR] [--no-result-cache] [--version]

Starts the asyncio simulation server of :mod:`repro.service.server` and
runs until SIGTERM/SIGINT, then drains: the listening socket closes,
every admitted request completes and receives its response, and the
telemetry session (metrics, and events when ``--telemetry-dir`` is set)
is flushed.  ``--port 0`` binds an ephemeral port; the bound address is
printed on the ready line either way::

    repro-serve: listening on http://127.0.0.1:8077 (queue=64, workers=1)

The ready line goes to stdout (and is flushed) so supervisors and the
load generator can block on it.  See ``docs/SERVING.md`` for the
endpoint and backpressure contract.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from pathlib import Path

from repro.common.version import add_version_argument
from repro.parallel import resolve_jobs
from repro.service.server import CoherenceService, ServiceConfig


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve coherence-simulation requests over HTTP/JSON "
        "(replay, policy comparison, experiment rows).",
    )
    add_version_argument(parser)
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8077,
                        help="bind port (default 8077; 0 = ephemeral)")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="admitted-request bound; beyond it requests "
                        "get 429 + Retry-After (default 64)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="replay workers (default: REPRO_JOBS or 1; "
                        "0 = all CPUs); 1 executes on a thread, more "
                        "dispatch onto the session process pool")
    parser.add_argument("--telemetry-dir", type=Path, default=None,
                        help="flush metrics.prom (and stream events) "
                        "into this directory on drain")
    parser.add_argument("--no-result-cache", action="store_true",
                        help="serve without the on-disk replay result "
                        "cache (single-flight dedup still applies)")
    args = parser.parse_args(argv)
    if args.max_queue < 1:
        parser.error("--max-queue must be at least 1")
    try:
        resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))
    if args.no_result_cache:
        os.environ["REPRO_RESULT_CACHE"] = "off"
    config = ServiceConfig(
        host=args.host, port=args.port, max_queue=args.max_queue,
        jobs=args.jobs, telemetry_dir=args.telemetry_dir,
    )
    service = CoherenceService(config)
    try:
        asyncio.run(service.run(lambda: (
            f"repro-serve: listening on http://{config.host}:{service.port} "
            f"(queue={config.max_queue}, workers={service.workers})"
        )))
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        return 0
    print(f"repro-serve: drained after {service.served} request(s)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
