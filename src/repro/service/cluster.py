"""The ``repro-cluster`` console entry point.

Usage::

    repro-cluster [--host H] [--port P] [--shards N] [--max-queue N]
                  [--jobs N] [--router-cache N] [--replicas R]
                  [--hot-key-min N] [--hot-key-top K]
                  [--result-cache DIR] [--telemetry-dir DIR] [--version]

Spawns ``--shards`` worker processes (each a full ``repro-serve``
instance on an ephemeral port, sharing one on-disk result cache) behind
the consistent-hash router of :mod:`repro.service.router`, and runs
until SIGTERM/SIGINT.  The drain is rolling and lossless: the router
stops accepting, finishes every admitted request, then drains shards
one at a time — each leaves the ring before it is signalled, so zero
in-flight requests fail.

``--port 0`` binds an ephemeral router port; the bound address is
printed on the ready line either way::

    repro-cluster: routing http://127.0.0.1:8078 across 4 shard(s) \
(queue=64/shard, replicas=2, router-cache=256)

The ready line goes to stdout (flushed) after every shard is up, so
supervisors and the load generator can block on it.  See
``docs/SERVING.md`` ("Cluster") for the routing, caching, and restart
contract.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

from repro.common.version import add_version_argument
from repro.parallel import resolve_jobs
from repro.service.router import ClusterConfig, ClusterRouter


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Serve coherence-simulation requests from a sharded "
        "fleet: consistent-hash routing on the replay cache key, "
        "cluster-wide single-flight, a router result-cache tier, "
        "hot-key replication, and rolling lossless restarts.",
    )
    add_version_argument(parser)
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8078,
                        help="router bind port (default 8078; "
                        "0 = ephemeral)")
    parser.add_argument("--shards", type=int, default=2,
                        help="shard worker processes (default 2)")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="per-shard admission bound (default 64); "
                        "the router admits shards * max-queue")
    parser.add_argument("--jobs", type=int, default=None,
                        help="replay workers per shard (default: "
                        "REPRO_JOBS or 1; 0 = all CPUs)")
    parser.add_argument("--router-cache", type=int, default=256,
                        help="router in-memory result-cache entries "
                        "(default 256; 0 disables the router tier)")
    parser.add_argument("--replicas", type=int, default=2,
                        help="shards a hot key round-robins across "
                        "(default 2; 1 disables replication)")
    parser.add_argument("--hot-key-min", type=int, default=8,
                        help="requests before a key can turn hot "
                        "(default 8)")
    parser.add_argument("--hot-key-top", type=int, default=4,
                        help="hot-set size, top-k by request count "
                        "(default 4)")
    parser.add_argument("--result-cache", type=Path, default=None,
                        help="shared on-disk result-cache directory for "
                        "the fleet (default: the ambient "
                        "REPRO_RESULT_CACHE resolution)")
    parser.add_argument("--telemetry-dir", type=Path, default=None,
                        help="write the router's metrics.prom into this "
                        "directory on drain")
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be at least 1")
    if args.max_queue < 1:
        parser.error("--max-queue must be at least 1")
    if args.replicas < 1:
        parser.error("--replicas must be at least 1")
    if args.router_cache < 0:
        parser.error("--router-cache must be >= 0")
    try:
        resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))
    config = ClusterConfig(
        host=args.host, port=args.port, shards=args.shards,
        max_queue=args.max_queue, jobs=args.jobs,
        router_cache=args.router_cache, replicas=args.replicas,
        hot_key_min=args.hot_key_min, hot_key_top=args.hot_key_top,
        cache_dir=args.result_cache, telemetry_dir=args.telemetry_dir,
    )
    router = ClusterRouter(config)
    try:
        asyncio.run(router.run(lambda: (
            f"repro-cluster: routing http://{config.host}:{router.port} "
            f"across {config.shards} shard(s) "
            f"(queue={config.max_queue}/shard, replicas={config.replicas}, "
            f"router-cache={config.router_cache})"
        )))
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        return 0
    print(f"repro-cluster: drained after {router.served} request(s)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
