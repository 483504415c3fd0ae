"""The asyncio HTTP/JSON coherence-simulation server.

One :class:`CoherenceService` — a tier on the front door, admission
gate, and single-flight primitive of :mod:`repro.service.http` — owns
four pieces of machinery:

* **Admission control** — at most ``max_queue`` requests are in flight
  at once; the next one is answered ``429 Too Many Requests`` with a
  ``Retry-After`` header instead of being buffered without bound.  Load
  sheds at the front door, where it is cheap.
* **Single-flight coalescing** — concurrent identical requests (same
  replay result-cache key: trace digest + config/policy behavioural
  digests) share one execution.  The first request becomes the leader
  and runs the replay; followers await the leader's future.  A thundering
  herd of N identical requests costs exactly one pool execution and one
  cache miss, which is how the load generator verifies the property from
  the outside (``repro_result_cache_requests_total``).
* **Cache integration** — served replays consult and populate the same
  content-addressed result cache the batch CLIs use
  (:mod:`repro.experiments.resultcache`), so a table cell computed by
  ``repro-experiments`` is a cache hit over HTTP and vice versa.
* **Execution dispatch** — replays run on the session process pool
  (:func:`repro.parallel.get_pool`) when the server is configured with
  more than one worker, with traces published once into the
  shared-memory arena (:mod:`repro.trace.shm`) so pool workers attach
  zero-copy; a single-worker server executes on a thread instead, which
  keeps tests and small deployments free of spawn cost.

``GET /healthz`` and ``GET /metrics`` are never admission-controlled;
metrics render the server's telemetry registry in Prometheus text
format.  On SIGTERM/SIGINT (``repro-serve``) the server stops
accepting connections, finishes every admitted request, then exits —
the graceful-drain contract the load generator exercises.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from concurrent.futures.process import BrokenProcessPool

from repro.experiments import common, resultcache
from repro.parallel import effective_workers, get_pool, shutdown_pool
from repro.service import protocol, worker
from repro.service.http import HttpService, Reply, Request, Route, parse_json
from repro.service.protocol import (
    QUERY_PATHS,
    CompareRequest,
    ExperimentRequest,
    ReplaySpec,
    ServiceError,
    VerifyRequest,
)
from repro.snooping.costmodels import model1_cost
from repro.telemetry import runtime as telemetry
from repro.trace import shm

#: Metric families the server maintains (all in its telemetry registry).
REQUESTS_METRIC = "repro_service_requests_total"
QUEUE_DEPTH_METRIC = "repro_service_queue_depth"
SINGLEFLIGHT_METRIC = "repro_service_singleflight_total"
EXECUTIONS_METRIC = "repro_service_executions_total"

_DECODERS = {
    "directory": resultcache.decode_message_stats,
    "bus": resultcache.decode_bus_stats,
}


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Knobs for one server instance.

    Attributes:
        host: bind address.
        port: bind port (0 = ephemeral; read the bound port back from
            :attr:`CoherenceService.port`).
        max_queue: admitted-request bound; the N+1st concurrent request
            is answered 429.
        jobs: replay workers (resolved like ``--jobs`` everywhere else:
            ``None`` = ``REPRO_JOBS`` or 1, 0 = all CPUs).  1 executes
            on a thread; >1 dispatches onto the session process pool.
        telemetry_dir: when set, the telemetry session dumps
            ``metrics.prom`` (and streams events) there on drain.
    """

    host: str = "127.0.0.1"
    port: int = 8077
    max_queue: int = 64
    jobs: int | None = None
    telemetry_dir: str | Path | None = None


class CoherenceService(HttpService):
    """The serving state machine (see module docstring)."""

    tier = "server"
    requests_metric = REQUESTS_METRIC
    requests_help = "service requests by endpoint and status"
    singleflight_metric = SINGLEFLIGHT_METRIC
    singleflight_help = ("request coalescing (leaders execute, "
                         "followers wait)")
    depth_metric = QUEUE_DEPTH_METRIC

    def __init__(self, config: ServiceConfig,
                 session: telemetry.TelemetrySession | None = None):
        super().__init__()
        self.config = config
        # A huge item count: the clamp logic should only consider CPUs.
        self.workers = effective_workers(config.jobs, 1 << 30)
        self._session = session
        self._owns_session = session is None
        self._previous_session: telemetry.TelemetrySession | None = None
        self._trace_locks: dict[tuple, asyncio.Lock] = {}
        self._traces: dict[tuple, tuple[str, shm.TraceHandle | None]] = {}
        for path in QUERY_PATHS:
            self.routes[path] = Route("POST", self._query, admitted=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def registry(self):
        """The server's metrics registry (the /metrics source)."""
        return self._session.registry

    @property
    def admission_limit(self) -> int:
        return self.config.max_queue

    async def start(self) -> None:
        """Install the telemetry session and bind the listening socket."""
        if self._session is None:
            # instrument_machines=False: the server wants request-level
            # observability, not per-step machine events — and an
            # instrumenting session would disable the result cache.
            self._session = telemetry.TelemetrySession(
                self.config.telemetry_dir, instrument_machines=False
            )
        self._previous_session = telemetry.configure(self._session)
        await super().start()

    async def _teardown(self) -> None:
        """Reap the pool, then flush the telemetry session."""
        if self.workers > 1:
            # Graceful pool teardown *after* the last admitted request:
            # a job still executing in a worker (a straggler the loop
            # is no longer awaiting, or work submitted moments before
            # SIGTERM) finishes rather than being cancelled by the
            # atexit hook's non-waiting shutdown, and the worker
            # processes are reaped before the shard process exits —
            # the shard supervisor never sees orphans.  Runs on a
            # thread: Executor.shutdown(wait=True) blocks on worker
            # exit and must not stall the event loop mid-drain.
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: shutdown_pool(wait=True)
            )
        telemetry.configure(self._previous_session)
        if self._owns_session and self._session is not None:
            self._session.close()

    # ------------------------------------------------------------------
    # Query dispatch
    # ------------------------------------------------------------------

    async def _query(self, request: Request) -> Reply:
        payload = parse_json(request.body)
        with telemetry.span("service.request", endpoint=request.path):
            return 200, await self._answer(request.path, payload), ()

    async def _answer(self, path: str, payload: dict) -> dict:
        if path == "/v1/replay":
            return await self._serve_replay(
                protocol.parse_replay_request(payload)
            )
        if path == "/v1/compare":
            return await self._serve_compare(
                CompareRequest.from_payload(payload)
            )
        if path == "/v1/verify":
            return await self._serve_verify(
                VerifyRequest.from_payload(payload)
            )
        return await self._serve_experiment(
            ExperimentRequest.from_payload(payload)
        )

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    async def _serve_replay(self, spec: ReplaySpec) -> dict:
        started = perf_counter()
        payload, cached, coalesced = await self._replay_payload(spec)
        return protocol.replay_response(
            spec, payload, cached, coalesced,
            (perf_counter() - started) * 1000.0,
        )

    async def _replay_payload(self, spec: ReplaySpec) -> tuple[dict, bool, bool]:
        digest, handle = await self._trace_for(spec)
        kind, parts = worker.replay_cache_parts(spec, digest)
        key = resultcache.result_key(kind, parts)
        decoder = _DECODERS[kind]

        def decodable(candidate) -> bool:
            try:
                decoder(candidate)
            except Exception:
                return False
            return True

        span_meta = {"kind": kind, "app": spec.app, "policy": spec.policy}
        return await self._cached_execute(
            kind, key, worker.run_replay, (spec.to_payload(), handle),
            decodable, span_meta,
        )

    async def _serve_compare(self, request: CompareRequest) -> dict:
        started = perf_counter()
        specs = request.replay_specs()
        outcomes = await asyncio.gather(
            *(self._replay_payload(spec) for spec in specs)
        )
        results = {spec.policy: payload
                   for spec, (payload, _, _) in zip(specs, outcomes)}
        totals = {
            name: _result_total(request.spec.engine, payload)
            for name, payload in results.items()
        }
        return protocol.compare_response(
            request, results, totals, (perf_counter() - started) * 1000.0
        )

    async def _serve_experiment(self, request: ExperimentRequest) -> dict:
        started = perf_counter()
        kind = "service-experiment"
        key = resultcache.result_key(
            kind, (request.name, request.scale, request.seed, *request.apps)
        )

        def decodable(candidate) -> bool:
            return (isinstance(candidate, dict)
                    and isinstance(candidate.get("rendered"), str))

        payload, cached, coalesced = await self._cached_execute(
            kind, key, worker.run_experiment, (request.to_payload(),),
            decodable, {"experiment": request.name},
        )
        return protocol.experiment_response(
            request, payload["rendered"], cached, coalesced,
            (perf_counter() - started) * 1000.0,
        )

    async def _serve_verify(self, request: VerifyRequest) -> dict:
        started = perf_counter()
        kind = "service-verify"
        key = resultcache.result_key(kind, request.cache_parts())

        def decodable(candidate) -> bool:
            return (isinstance(candidate, dict)
                    and candidate.get("kind") == "repro-verify-certificate"
                    and isinstance(candidate.get("combos"), list))

        payload, cached, coalesced = await self._cached_execute(
            kind, key, worker.run_verify, (request.to_payload(),),
            decodable, {"engine": request.engine},
        )
        return protocol.verify_response(
            request, payload, cached, coalesced,
            (perf_counter() - started) * 1000.0,
        )

    async def _cached_execute(self, kind: str, key: str, fn, args: tuple,
                              decodable, span_meta: dict
                              ) -> tuple[dict, bool, bool]:
        """Cache lookup -> single-flight -> pool execution -> store.

        Returns ``(payload, cached, coalesced)``.  Exactly one of the
        coalesced group executes ``fn(*args)`` (a module-level worker
        body with picklable arguments — it may cross into a pool
        process); pure cache hits never register as leaders.
        """
        existing = self._flights.join(key)
        if existing is not None:
            return await existing, False, True

        use_cache = resultcache.enabled()
        if use_cache:
            payload = resultcache.fetch(key)
            if payload is not None and decodable(payload):
                resultcache.record_lookup(kind, "hit")
                return payload, True, False
            resultcache.record_lookup(kind, "miss")

        async def execute() -> dict:
            with telemetry.span("service.execute", **span_meta):
                payload = await self._execute(fn, *args)
            self.registry.counter(
                EXECUTIONS_METRIC, "replays/experiments actually executed"
            ).inc(kind=kind)
            if use_cache:
                resultcache.store(key, payload)
                resultcache.record_store()
            return payload

        return await self._flights.lead(key, execute), False, False

    async def _execute(self, fn, *args):
        """Run ``fn(*args)`` off the event loop: on the session process
        pool for a multi-worker server, on a thread otherwise."""
        loop = asyncio.get_running_loop()
        if self.workers > 1:
            pool = get_pool(self.workers)
            try:
                return await loop.run_in_executor(pool, fn, *args)
            except BrokenProcessPool:
                # A worker died hard; dispose of the executor so the
                # next request starts from a clean pool.
                shutdown_pool()
                raise ServiceError(
                    "worker pool broken during execution; retry"
                ) from None
        return await loop.run_in_executor(None, fn, *args)

    async def _trace_for(self, spec: ReplaySpec
                         ) -> tuple[str, shm.TraceHandle | None]:
        """Build (once) and publish (pool mode) the spec's trace.

        Returns the trace digest — the cache-key component — and the
        shared-memory handle pool workers attach to (``None`` on the
        thread path or when publication fell back).
        """
        key = spec.trace_key
        ready = self._traces.get(key)
        if ready is not None:
            return ready
        lock = self._trace_locks.setdefault(key, asyncio.Lock())
        async with lock:
            ready = self._traces.get(key)
            if ready is not None:
                return ready
            loop = asyncio.get_running_loop()
            with telemetry.span("service.trace", app=spec.app):
                trace = await loop.run_in_executor(
                    None, common.get_trace, spec.app, spec.num_procs,
                    spec.seed, spec.scale,
                )
                digest = await loop.run_in_executor(
                    None, lambda: trace.pack().digest()
                )
            handle = None
            if self.workers > 1:
                # Publish once; every pool worker attaches zero-copy.
                # None (no shared memory on this platform) is fine —
                # workers fall back to their own trace caches.
                handle = shm.default_arena().publish(key, trace.pack())
            ready = (digest, handle)
            self._traces[key] = ready
            return ready

    def _health_fields(self) -> dict:
        return {"max_queue": self.config.max_queue, "workers": self.workers}


def _result_total(engine: str, payload: dict) -> int:
    """The scalar cost a compare request ranks policies by."""
    if engine == "directory":
        stats = resultcache.decode_message_stats(payload)
        return stats.total
    return model1_cost(resultcache.decode_bus_stats(payload))

