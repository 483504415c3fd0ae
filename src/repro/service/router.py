"""The consistent-hash cluster router.

One :class:`ClusterRouter` fronts N shard workers (spawned and reaped
by :class:`repro.service.shards.ShardSupervisor`) and routes every
query on its **result-cache affinity key** — a canonical projection of
the validated request that maps 1:1 onto the replay result cache's
content key — over a :class:`repro.service.ring.HashRing`.  The same
spec always lands on the same shard, so each shard's in-process caches
(result-cache memory front, trace cache, shm arena, grown kernel DFAs)
stay hot for *its* slice of the key space instead of every shard
slowly warming every key.

On top of routing the router adds:

* **Cluster-wide single-flight** — identical concurrent requests
  anywhere in the fleet coalesce at the router: one leader forwards,
  followers await its outcome.  A thundering herd of N identical
  requests costs one shard execution, fleet-wide.
* **A tiered result cache** — a bounded in-memory LRU
  (:class:`repro.experiments.resultcache.MemoryLru`) over the shards'
  shared on-disk tier over each shard's own memory front.  A router
  hit answers with ``"tier": "router"`` and never touches a shard.
* **Hot-key replication** — the top-k most-requested keys (past a
  count floor) fan out round-robin across ``replicas`` distinct shards
  from the ring's preference list, so a zipf head cannot serialise on
  one shard while the rest idle.
* **Health + circuit breaking** — a background prober marks a shard
  dead after consecutive failures (or on a forwarding connection
  error), removes it from the ring immediately, reroutes in-flight
  retries to the next preference, and respawns the shard in the
  background; the ring re-grows when the replacement is ready.
* **Rolling restart** (``POST /v1/cluster/restart``) — shards restart
  one at a time: removed from the ring first, drained to zero local
  in-flight, SIGTERMed, respawned, re-added.  No admitted request ever
  observes the restarting shard, which is what makes the zero-failure
  drain guarantee structural rather than statistical.

``GET /metrics`` aggregates every live shard's exposition with the
router's own registry via :func:`repro.telemetry.metrics.
combine_prometheus_texts`, each sample relabeled ``shard="..."`` /
``shard="router"``.  ``GET /v1/cluster/status`` reports ring shares,
per-shard health, cache-tier counters, and the current hot set.

The listening side (framing, 404/405, admission, the single-flight
bookkeeping) is the :mod:`repro.service.http` core the shard server
runs too, and every forward, probe, and ``/metrics`` fetch goes out
through its :func:`~repro.service.http.request`.
"""

from __future__ import annotations

import asyncio
import hashlib
import heapq
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.experiments import resultcache
from repro.service import http, protocol
from repro.service.http import HttpService, Reply, Request, Route, parse_json
from repro.service.protocol import (
    QUERY_PATHS,
    CompareRequest,
    ExperimentRequest,
    ServiceError,
    VerifyRequest,
)
from repro.service.ring import HashRing
from repro.service.shards import ShardError, ShardHandle, ShardSupervisor
from repro.telemetry.metrics import MetricsRegistry, combine_prometheus_texts

#: Metric families the router maintains (all in its own registry, which
#: renders under ``shard="router"`` in the combined exposition).
REQUESTS_METRIC = "repro_cluster_requests_total"
SINGLEFLIGHT_METRIC = "repro_cluster_singleflight_total"
CACHE_METRIC = "repro_cluster_cache_total"
FORWARDS_METRIC = "repro_cluster_forwards_total"
SHARD_UP_METRIC = "repro_cluster_shard_up"
RESTARTS_METRIC = "repro_cluster_restarts_total"

#: Consecutive health-probe failures before a shard is declared dead.
FAILURE_THRESHOLD = 2

#: Hot-set recomputation stride (requests between top-k refreshes).
_HOT_REFRESH_EVERY = 32


def routing_key(path: str, payload: dict) -> str:
    """The affinity key one validated query routes on.

    A canonical projection of the request's behavioural fields — the
    same fields the replay result cache keys on (the trace digest is a
    pure function of ``(app, num_procs, seed, scale)``, so the spec
    projection maps 1:1 to cache entries without the router ever
    building a trace).  Validation happens here, at the edge: malformed
    requests raise :class:`ServiceError` and never reach a shard.
    """
    if path == "/v1/replay":
        spec = protocol.parse_replay_request(payload)
        parts: tuple = ("replay", *sorted(spec.to_payload().items()))
    elif path == "/v1/compare":
        request = CompareRequest.from_payload(payload)
        parts = ("compare", *sorted(request.spec.to_payload().items()),
                 *request.policies)
    elif path == "/v1/experiment":
        request = ExperimentRequest.from_payload(payload)
        parts = ("experiment", request.name, request.scale, request.seed,
                 *request.apps)
    elif path == "/v1/verify":
        request = VerifyRequest.from_payload(payload)
        parts = ("verify", request.engine, request.protocol or "-",
                 request.num_procs, request.num_blocks, request.evictions)
    else:  # pragma: no cover - guarded by the dispatcher
        raise ServiceError(f"unroutable path {path!r}")
    spec_text = "|".join(str(part) for part in parts)
    return hashlib.sha256(spec_text.encode()).hexdigest()[:24]


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Knobs for one router + shard fleet.

    Attributes:
        host: bind address (router and shards).
        port: router bind port (0 = ephemeral).
        shards: shard worker count.
        max_queue: per-shard admission bound; the router's own bound is
            ``shards * max_queue``.
        jobs: per-shard replay workers (see ``repro-serve --jobs``).
        router_cache: router in-memory LRU capacity (entries); 0
            disables the router tier entirely.
        replicas: shards a hot key fans out across (1 = no replication).
        hot_key_min: requests before a key may be considered hot.
        hot_key_top: size of the hot set (top-k by request count).
        cache_dir: shared on-disk result-cache directory for the fleet;
            None inherits the ambient ``REPRO_RESULT_CACHE`` resolution.
        telemetry_dir: when set, the router dumps its combined
            ``metrics.prom`` there on drain.
    """

    host: str = "127.0.0.1"
    port: int = 8078
    shards: int = 2
    max_queue: int = 64
    jobs: int | None = None
    router_cache: int = 256
    replicas: int = 2
    hot_key_min: int = 8
    hot_key_top: int = 4
    cache_dir: str | Path | None = None
    telemetry_dir: str | Path | None = None


class _Shard:
    """Router-side state for one shard worker."""

    __slots__ = ("name", "handle", "inflight", "forwards", "failures",
                 "restarts", "healthy", "restarting")

    def __init__(self, name: str, handle: ShardHandle):
        self.name = name
        self.handle = handle
        self.inflight = 0
        self.forwards = 0
        self.failures = 0
        self.restarts = 0
        self.healthy = True
        self.restarting = False

    @property
    def port(self) -> int:
        return self.handle.port


class ClusterRouter(HttpService):
    """The sharded serving fleet's front door (see module docstring)."""

    tier = "cluster"
    requests_metric = REQUESTS_METRIC
    requests_help = "cluster requests by endpoint and status"
    singleflight_metric = SINGLEFLIGHT_METRIC
    singleflight_help = ("cluster-wide request coalescing (leaders "
                         "forward, followers wait)")

    def __init__(self, config: ClusterConfig):
        if config.shards < 1:
            raise ServiceError("cluster needs at least one shard")
        if config.replicas < 1:
            raise ServiceError("replicas must be at least 1")
        super().__init__()
        self.config = config
        cache_dir = config.cache_dir
        if cache_dir is None:
            cache_dir = resultcache.cache_dir()
        self.supervisor = ShardSupervisor(
            host=config.host, max_queue=config.max_queue, jobs=config.jobs,
            cache_dir=cache_dir,
        )
        self.ring = HashRing()
        self.registry = MetricsRegistry()
        self._shards: dict[str, _Shard] = {}
        self._cache = (resultcache.MemoryLru(config.router_cache)
                       if config.router_cache > 0 else None)
        self._key_counts: dict[str, int] = {}
        self._keys_noted = 0
        self._hot: frozenset[str] = frozenset()
        self._rr: dict[str, int] = {}
        self._health_task: asyncio.Task | None = None
        self._restart_lock = asyncio.Lock()
        self.routes["/v1/cluster/status"] = Route("GET", self._serve_status)
        self.routes["/v1/cluster/restart"] = Route("POST",
                                                   self._serve_restart)
        for path in QUERY_PATHS:
            self.routes[path] = Route("POST", self._query, admitted=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def admission_limit(self) -> int:
        return self.config.max_queue * len(self._shards)

    async def start(self) -> None:
        """Spawn the fleet, populate the ring, bind the router socket."""
        names = [f"shard-{index}" for index in range(self.config.shards)]
        handles = await asyncio.gather(
            *(self.supervisor.spawn(name) for name in names)
        )
        for name, handle in zip(names, handles):
            self._shards[name] = _Shard(name, handle)
            self.ring.add(name)
            self._gauge_up(name, True)
        await super().start()
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop()
        )

    async def drain(self) -> None:
        """Router drain: close the door, finish work, drain the fleet.

        The health prober stops first, so no shard is revived mid-drain.
        """
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
        await super().drain()

    async def _teardown(self) -> None:
        """Drain shards **one at a time**.

        Each is removed from the ring (so the drain of shard k never
        affects traffic that would have hit shard k+1 had the router
        still been accepting), waited to zero router-tracked in-flight
        forwards, then SIGTERMed and reaped through its own graceful
        drain.
        """
        for name in sorted(self._shards):
            shard = self._shards[name]
            self.ring.remove(name)
            await self._wait_shard_idle(shard)
            await self.supervisor.stop(shard.handle)
            self._gauge_up(name, False)
        if self.config.telemetry_dir is not None:
            directory = Path(self.config.telemetry_dir)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "metrics.prom").write_text(
                self.registry.render_prometheus()
            )

    # ------------------------------------------------------------------
    # Query pipeline: validate -> cache -> single-flight -> forward
    # ------------------------------------------------------------------

    async def _query(self, request: Request) -> Reply:
        key = routing_key(request.path, parse_json(request.body))
        return await self._answer(request.path, key, request.body)

    async def _answer(self, path: str, key: str, body: bytes) -> Reply:
        """One routed query; returns ``(status, payload, extra_headers)``."""
        self._note_key(key)
        if self._cache is not None:
            hit = self._cache.get(key)
            self._count_cache("router", "hit" if hit is not None else "miss")
            if hit is not None:
                return 200, {**hit, "cached": True, "tier": "router"}, ()

        existing = self._flights.join(key)
        if existing is not None:
            # Cluster-wide single-flight: share the leader's outcome
            # (including its error, if it got one) without a second
            # shard execution anywhere in the fleet.
            status, payload, extra = await existing
            if status == 200:
                payload = {**payload, "coalesced": True}
            return status, payload, extra

        outcome = await self._flights.lead(
            key, lambda: self._forward_query(path, key, body)
        )
        status, payload, _extra = outcome
        if status == 200 and self._cache is not None:
            self._cache.put(key, payload)
        return outcome

    async def _forward_query(self, path: str, key: str, body: bytes
                             ) -> tuple[int, dict, tuple[str, ...]]:
        """Forward to the routed shard, rerouting around failures.

        A connection error or shard 503 marks the shard for restart and
        moves to the next candidate on the ring's preference list; only
        when every live shard has refused does the client see a 503.
        """
        tried: set[str] = set()
        while True:
            shard = self._pick(key, tried)
            if shard is None:
                return 503, protocol.error_response(
                    "no shard available for this request"
                ), ()
            shard.inflight += 1
            try:
                status, headers, payload = await http.request(
                    self.config.host, shard.port, "POST", path, body
                )
            except (ConnectionError, OSError, asyncio.TimeoutError):
                tried.add(shard.name)
                self._count_forward(shard.name, "error")
                self._shard_failed(shard)
                continue
            finally:
                shard.inflight -= 1
            if status == 503:
                # The shard is draining under us (e.g. an external
                # SIGTERM): treat like a death, reroute.
                tried.add(shard.name)
                self._count_forward(shard.name, status)
                self._shard_failed(shard)
                continue
            shard.forwards += 1
            shard.failures = 0
            self._count_forward(shard.name, status)
            extra = ()
            retry_after = headers.get("retry-after")
            if retry_after:
                extra = (f"Retry-After: {retry_after}",)
            return status, payload, extra

    def _pick(self, key: str, tried: set[str]) -> _Shard | None:
        """The shard one query forwards to.

        Cold keys route straight off the ring; hot keys round-robin
        across the first ``replicas`` distinct shards of the ring's
        preference list.  ``tried`` shards (this request's failures)
        are skipped by walking further down the preference list.
        """
        if not len(self.ring):
            return None
        replicas = self.config.replicas
        if replicas > 1 and key in self._hot:
            candidates = self.ring.preference(key, replicas)
            turn = self._rr.get(key, -1) + 1
            self._rr[key] = turn
            candidates = (candidates[turn % len(candidates):]
                          + candidates[:turn % len(candidates)])
        else:
            candidates = [self.ring.route(key)]
        if tried:
            # Extend with every remaining ring member so a partial
            # outage degrades to "any live shard" rather than a 503.
            seen = set(candidates)
            candidates += [name for name
                           in self.ring.preference(key, len(self.ring))
                           if name not in seen]
        for name in candidates:
            shard = self._shards.get(name)
            if shard is not None and name not in tried and shard.healthy:
                return shard
        return None

    def _note_key(self, key: str) -> None:
        counts = self._key_counts
        counts[key] = counts.get(key, 0) + 1
        self._keys_noted += 1
        if self._keys_noted % _HOT_REFRESH_EVERY == 0:
            self._refresh_hot()

    def _refresh_hot(self) -> None:
        floor = self.config.hot_key_min
        ranked = heapq.nlargest(
            self.config.hot_key_top,
            ((count, key) for key, count in self._key_counts.items()
             if count >= floor),
        )
        self._hot = frozenset(key for _, key in ranked)

    # ------------------------------------------------------------------
    # Shard health, death, and restart
    # ------------------------------------------------------------------

    async def _health_loop(self) -> None:
        """Background prober: dead shards leave the ring immediately."""
        while True:
            await asyncio.sleep(0.5)
            for shard in list(self._shards.values()):
                if shard.restarting or not shard.healthy:
                    continue
                if not shard.handle.alive():
                    self._shard_failed(shard, immediately=True)
                    continue
                try:
                    status, _, _ = await http.request(
                        self.config.host, shard.port, "GET", "/healthz",
                        timeout=2.0,
                    )
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    self._shard_failed(shard)
                else:
                    if status == 200:
                        shard.failures = 0

    def _shard_failed(self, shard: _Shard, immediately: bool = False
                      ) -> None:
        """Count one failure; past the threshold, break the circuit."""
        shard.failures += 1
        if not immediately and shard.failures < FAILURE_THRESHOLD:
            return
        if shard.restarting or self._draining:
            return
        shard.healthy = False
        shard.restarting = True
        self.ring.remove(shard.name)
        self._gauge_up(shard.name, False)
        asyncio.get_running_loop().create_task(self._revive(shard))

    async def _revive(self, shard: _Shard) -> None:
        """Respawn a dead shard and re-add it to the ring when ready."""
        try:
            handle = await self.supervisor.restart(shard.handle)
        except ShardError:
            shard.restarting = False
            return  # next health tick retries via _shard_failed
        self._rejoin(shard, handle)

    def _rejoin(self, shard: _Shard, handle: ShardHandle) -> None:
        """A respawned shard is healthy again and (unless the router is
        draining) back in the ring."""
        shard.handle = handle
        shard.failures = 0
        shard.restarts += 1
        shard.healthy = True
        shard.restarting = False
        self.registry.counter(
            RESTARTS_METRIC, "shard restarts by the router"
        ).inc(shard=shard.name)
        if not self._draining:
            self.ring.add(shard.name)
            self._gauge_up(shard.name, True)

    async def _wait_shard_idle(self, shard: _Shard) -> None:
        while shard.inflight > 0:
            await asyncio.sleep(0.01)

    async def _serve_restart(self, request: Request) -> Reply:
        if self._draining:
            return 503, protocol.error_response("cluster is draining"), ()
        started = perf_counter()
        async with self._restart_lock:
            report = await self._rolling_restart()
        return 200, protocol.cluster_restart_response(
            report, (perf_counter() - started) * 1000.0
        ), ()

    async def _rolling_restart(self) -> list[dict]:
        """Restart every shard, one at a time, with zero lost requests.

        Order of operations per shard is the whole guarantee: ring
        removal happens on the router's event loop *before* the drain
        wait, so no new forward can select the shard; the wait ensures
        every already-forwarded request got its response; only then is
        SIGTERM sent.  The ring shrinks by one and regrows when the
        replacement reports ready.
        """
        report = []
        for name in sorted(self._shards):
            shard = self._shards[name]
            started = perf_counter()
            shard.restarting = True
            self.ring.remove(name)
            self._gauge_up(name, False)
            await self._wait_shard_idle(shard)
            try:
                handle = await self.supervisor.restart(shard.handle)
            except ShardError as exc:
                shard.restarting = False
                shard.healthy = False
                report.append({"shard": name, "ok": False,
                               "error": str(exc)})
                continue
            self._rejoin(shard, handle)
            report.append({
                "shard": name, "ok": True,
                "elapsed_ms": round((perf_counter() - started) * 1000.0, 3),
            })
        return report

    # ------------------------------------------------------------------
    # Introspection and metrics plumbing
    # ------------------------------------------------------------------

    async def _metrics_text(self) -> str:
        """Every live shard's exposition + the router's, relabeled."""
        shards = [shard for shard in self._shards.values()
                  if shard.healthy and not shard.restarting]

        async def fetch(shard: _Shard) -> tuple[str, str]:
            try:
                status, _, text = await http.request(
                    self.config.host, shard.port, "GET", "/metrics",
                    timeout=5.0,
                )
            except (ConnectionError, OSError, asyncio.TimeoutError):
                return shard.name, ""
            return shard.name, text if status == 200 else ""

        parts = list(await asyncio.gather(*(fetch(s) for s in shards)))
        parts.append(("router", self.registry.render_prometheus()))
        return combine_prometheus_texts(parts)

    def _health_fields(self) -> dict:
        return {"role": "cluster-router", "shards": len(self._shards),
                "ring_size": len(self.ring)}

    async def _serve_status(self, request: Request) -> Reply:
        return 200, protocol.cluster_status_response(self._status()), ()

    def _status(self) -> dict:
        ranked = sorted(self._key_counts.items(), key=lambda kv: -kv[1])
        return {
            "status": "draining" if self._draining else "ok",
            "shards": [
                {
                    "name": shard.name,
                    "port": shard.port,
                    "pid": shard.handle.pid,
                    "healthy": shard.healthy,
                    "restarting": shard.restarting,
                    "inflight": shard.inflight,
                    "forwards": shard.forwards,
                    "restarts": shard.restarts,
                }
                for _, shard in sorted(self._shards.items())
            ],
            "ring": self.ring.describe(),
            "router_cache": (self._cache.stats()
                             if self._cache is not None else None),
            "replicas": self.config.replicas,
            "hot_keys": [
                {"key": key, "count": count, "hot": key in self._hot}
                for key, count in ranked[: max(self.config.hot_key_top, 8)]
            ],
            "served": self._served,
        }

    def _count_cache(self, tier: str, status: str) -> None:
        self.registry.counter(
            CACHE_METRIC, "router-tier result cache lookups"
        ).inc(tier=tier, status=status)

    def _count_forward(self, shard: str, status) -> None:
        self.registry.counter(
            FORWARDS_METRIC, "forwards by shard and outcome"
        ).inc(shard=shard, status=status)

    def _gauge_up(self, shard: str, up: bool) -> None:
        self.registry.gauge(
            SHARD_UP_METRIC, "1 while the shard is in the ring"
        ).set(1 if up else 0, shard=shard)
