"""Workload ``serve-zipf``: the sharded replay service under open-loop load.

BENCHMARK.json does not list it: its figures move with the host far past
any allowed bound (README.md, "serve-zipf is not bounded").  It is run by
hand, and its traced run reports the serving layers.

``repro-cluster`` runs with 2 shards, ``--jobs 1`` and private, empty
trace and result caches (exported to the router and, through it, to
every shard).  Setup spawns the fleet and warms a catalog of replay
specs.  Then the open-loop generator (:mod:`openloop`) sends, from one
process over at most ``nproc`` connections:

* zipf-distributed requests over the catalog (``service.loadgen``'s
  ``zipf_weights`` at its ``DEFAULT_ZIPF_S``): hits, answered by the
  router's memory tier (the head) or a shard's result cache (the tail,
  since the router tier holds half of the catalog);
* every :data:`MISS_EVERY`-th request a fresh-seed small replay of one
  fixed configuration (:data:`MISS_CONFIG` on :data:`MISS_APP`), which
  executes on a shard and is stored (the write side).  One configuration
  keeps the misses alike, so the p99 they set is steady.

The run is :data:`BLOCKS` rounds.  Each round is one open-loop block at
the nominal rate :data:`NOMINAL_RPS` (half the run in all), then one
closed-loop block over :data:`openloop.CONNECTIONS` connections (each
sends its next request as soon as the last is answered, so the fleet
runs saturated), then :data:`PAUSE_S` idle.  Latency is the median of
the nominal blocks' p50s and the p99 of the nominal blocks pooled;
capacity is the median completion rate of the saturated blocks.
Interleaving makes both sample the whole run.  Every block has a fixed
request count, so a seed's run does the same work on any host.  An op is
one request.  Every served result is checked against its golden digest.

Why these values (README.md has the longer form):

* ``NOMINAL_RPS`` is about a fifth of the capacity this workload
  measures on a 2-vCPU host (~500 req/s), so the nominal latency is
  service time, not queueing.  It stays fixed, not derived per run, so
  that a change that raises capacity is compared at the same load.
* ``MISS_EVERY`` = 50 (2%) puts p99 in the middle of the executed tier:
  above a 1% share p99 is an executed request, and at 2% it sits half
  way through that tier instead of at its edge with the hit tiers.
* ``ROUTER_CACHE`` is half the catalog, so about 80% of the requests
  are router hits and p50 lies inside that tier; the tail reaches the
  shards.  At a quarter only two thirds were router hits and p50 sat at
  the edge of the 2-3x slower shard-hit tier, where it jumped with the
  share of each tier (IQR/median 0.3 over 5 runs).
* ``PAUSE_S`` lets the fleet go idle after a saturated block, so the
  next nominal block does not start behind the work the saturated one
  left (without it, in one fleet, the nominal router-hit p50 rose from
  1.85 ms before the first saturated block to 2.1-2.8 ms after).
* Capacity is measured saturated, not searched: a search over offered
  rates returns one of a few tested rates, and which one flipped from run
  to run (16-34% IQR/median over 10 runs), so it could not bound a
  regression.
"""

from __future__ import annotations

import itertools
import os
import random
import select
import signal
import subprocess
import sys
import time

from repro.experiments import common, resultcache
from repro.directory.policy import policy_by_name
from repro.service.client import ServiceClient, metric_value
from repro.service.loadgen import zipf_weights
from repro.snooping.protocols import AdaptiveSnoopingProtocol, MesiProtocol

from cold_replay import MIX
from golden import Golden
from layers import SERVICE_TIERS, empty_layers
from measure import (ROOT, Result, child_pids, digest, median, percentile,
                     proc_peak_rss_mb, self_peak_rss_mb, subprocess_env,
                     timed_setup)
from openloop import open_loop
from spans import Tracer

APPS = ("cholesky", "locusroute")
SCALE = 0.02
CATALOG_SEEDS = tuple(range(400_000, 400_016))
#: Trace seeds per app in one run's catalog (x len(MIX) specs each).
CATALOG_TRACES = 4
MISS_SEEDS = tuple(range(500_000, 502_048))
MISS_APP = "cholesky"
MISS_CONFIG = ("directory", "basic", 64 * 1024)
MISS_EVERY = 50
SHARDS = 2
ROUTER_CACHE = 32
NOMINAL_RPS = 100.0
#: Rounds of one nominal block plus one saturated block.
BLOCKS = 8
#: Requests of the saturated blocks per second of ``--seconds``: the
#: blocks take about 0.3 of the run on a 2-vCPU host, which completes
#: ~500 req/s saturated.  With the nominal blocks a run needs 4 misses
#: per second of ``--seconds``, so a 60 s run uses 240 of the MISS_SEEDS.
SATURATED_PER_S = 150
PAUSE_S = 0.25
#: Seconds the fleet may take to spawn and report ready.
READY_TIMEOUT_S = 120.0
MODULES = ("repro.service.client", "repro.experiments.common")


def spec_of(app: str, seed: int, config: tuple) -> dict:
    engine, policy, cache_size = config
    return {"engine": engine, "app": app, "policy": policy,
            "cache_size": cache_size, "seed": seed, "scale": SCALE}


def spec_key(spec: dict) -> str:
    return (f"{spec['engine']}/{spec['policy']}/{spec['cache_size']}/"
            f"{spec['app']}/{spec['seed']}")


def universe():
    """Every spec with a golden digest: catalog and miss specs."""
    for app in APPS:
        for seed in CATALOG_SEEDS:
            for config in MIX:
                yield spec_of(app, seed, config)
    for seed in MISS_SEEDS:
        yield spec_of(MISS_APP, seed, MISS_CONFIG)


def local_result(spec: dict) -> dict:
    """The result payload for ``spec`` computed in this process."""
    trace = common.get_trace(spec["app"], 16, spec["seed"], spec["scale"])
    if spec["engine"] == "directory":
        return resultcache.encode_message_stats(common.run_directory(
            trace, policy_by_name(spec["policy"]), spec["cache_size"]))
    protocol = (AdaptiveSnoopingProtocol() if spec["policy"] == "adaptive"
                else MesiProtocol())
    return resultcache.encode_bus_stats(
        common.run_bus(trace, protocol, spec["cache_size"]))


class Cluster:
    """One ``repro-cluster`` process tree with private caches."""

    def __init__(self, directory, label: str):
        self.traces = directory / f"traces-{label}"
        self.results = directory / f"results-{label}"
        self.log_path = directory / f"cluster-{label}.log"
        self.process = None
        self.port = None

    def start(self) -> None:
        env = subprocess_env(REPRO_TRACE_CACHE=str(self.traces),
                             REPRO_RESULT_CACHE=str(self.results))
        command = [sys.executable, "-m", "repro.service.cluster",
                   "--port", "0", "--shards", str(SHARDS), "--jobs", "1",
                   "--router-cache", str(ROUTER_CACHE),
                   "--result-cache", str(self.results)]
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, text=True,
                env=env, cwd=ROOT)
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = ""
        while "routing http://" not in line:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError("repro-cluster did not become ready; "
                                   f"see {self.log_path}")
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        remaining)
            if ready:
                line = self.process.stdout.readline()
        address = line.split("routing http://", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        with ServiceClient("127.0.0.1", self.port) as client:
            client.wait_ready(timeout=READY_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the router and its shard processes."""
        pids = [self.process.pid, *child_pids(self.process.pid)]
        return sum(proc_peak_rss_mb(pid) for pid in pids)

    def metrics(self) -> dict:
        with ServiceClient("127.0.0.1", self.port) as client:
            return client.metrics()

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            for pid in child_pids(self.process.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self.process = None


class Plan:
    """The run's catalog, zipf popularity order and miss queue."""

    def __init__(self, seed: int):
        rng = random.Random(f"serve-zipf:{seed}")
        self.rng = rng
        self.catalog = [spec_of(app, s, config) for app in APPS
                        for s in rng.sample(CATALOG_SEEDS, CATALOG_TRACES)
                        for config in MIX]
        rng.shuffle(self.catalog)  # popularity rank = position
        self.weights = zipf_weights(len(self.catalog))
        self.misses = [spec_of(MISS_APP, s, MISS_CONFIG)
                       for s in rng.sample(MISS_SEEDS, len(MISS_SEEDS))]

    def requests(self, count: int) -> list[dict]:
        out = []
        for i in range(count):
            if i % MISS_EVERY == MISS_EVERY // 2:
                if not self.misses:
                    raise RuntimeError(
                        f"serve-zipf: all {len(MISS_SEEDS)} miss specs with "
                        "golden digests are used; run with fewer --seconds")
                out.append(self.misses.pop())
            else:
                out.append(self.rng.choices(self.catalog, self.weights)[0])
        return out


def _warm(cluster: Cluster, catalog: list, check) -> int:
    """Request every catalog spec once; returns the failures."""
    outcomes, _ = open_loop(cluster.port, catalog, 1000.0, check)
    return sum(1 for out in outcomes if not out.ok)


def run(ctx) -> Result:
    result = Result()
    plan = Plan(ctx.seed)
    golden = Golden("serve-zipf", ctx.corrupt_golden)

    def check(spec, payload):
        return golden.check(spec_key(spec), payload)

    labels = itertools.count()
    warm_failures = []

    def setup():
        cluster = Cluster(ctx.dir.path, str(next(labels)))
        try:
            cluster.start()
            warm_failures.append(_warm(cluster, plan.catalog, check))
        except BaseException:
            cluster.stop()
            raise
        return cluster

    # Three set-ups, not seven: each spawns and warms a whole fleet.
    setup_s, cluster = timed_setup(MODULES, setup, discard=Cluster.stop,
                                   reps=3)
    try:
        return _measure(ctx, result, plan, cluster, check, setup_s,
                        warm_failures[-1])
    finally:
        cluster.stop()


def _count(outcomes, result) -> None:
    for out in outcomes:
        result.op(out.ok)


def _measure(ctx, result, plan, cluster, check, setup_s, warm_failed):
    scale = 0.1 if ctx.tiny else 1.0
    result.attempted += len(plan.catalog)
    result.failed += warm_failed
    nominal_n = max(20, int(NOMINAL_RPS * ctx.seconds * 0.5 * scale))
    if ctx.trace:
        return _traced(ctx, result, plan, cluster, check, nominal_n)

    block_n = max(5, nominal_n // BLOCKS)
    saturated_n = max(5, int(SATURATED_PER_S * ctx.seconds * scale)
                      // BLOCKS)
    blocks = [plan.requests(block_n) for _ in range(BLOCKS)]
    saturated_blocks = [plan.requests(saturated_n) for _ in range(BLOCKS)]
    result.inputs = digest([plan.catalog, blocks, saturated_blocks])
    nominal, block_p50s, backlog, rss = [], [], 0, 0.0
    saturated, rates = [], []
    for specs, saturated_specs in zip(blocks, saturated_blocks):
        outcomes, block_backlog = open_loop(cluster.port, specs,
                                            NOMINAL_RPS, check)
        _count(outcomes, result)
        nominal += outcomes
        block_p50s.append(percentile([o.latency_ms for o in outcomes], 50))
        backlog = max(backlog, block_backlog)
        # After the same work in every run: the first nominal block.
        rss = rss or self_peak_rss_mb() + cluster.peak_rss_mb()
        outcomes, _ = open_loop(cluster.port, saturated_specs, None, check)
        _count(outcomes, result)
        saturated += outcomes
        span = max(o.end for o in outcomes) - outcomes[0].start
        rates.append(len(outcomes) / span)
        time.sleep(PAUSE_S)
    # p50: median of the blocks' p50s.  p99 pools the blocks, so that it
    # has at least ten samples beyond it.
    p50 = median(block_p50s)
    p99 = percentile([o.latency_ms for o in nominal], 99)
    cap = median(rates)
    result.end_to_end = {
        "setup_s": setup_s, "peak_rss_mb": rss, "op_ms_p50": p50,
        "op_ms_tail": p99, "throughput": cap,
    }
    result.named = [
        ("serve_ms_p50", p50, "ms"), ("serve_ms_p99", p99, "ms"),
        ("serve_capacity_rps", cap, "req/s"),
        ("serve_ms_p99_saturated",
         percentile([o.latency_ms for o in saturated], 99), "ms"),
        ("nominal_requests", float(len(nominal)), "count"),
        ("nominal_backlog_max", float(backlog), "count"),
        ("saturated_requests", float(len(saturated)), "count"),
    ]
    return result


def _scrape(cluster) -> dict:
    samples = cluster.metrics()
    out = {
        "shed": metric_value(samples, "repro_cluster_requests_total",
                             status="429")
        + metric_value(samples, "repro_service_requests_total", status="429"),
        "followers": metric_value(samples, "repro_cluster_singleflight_total",
                                  role="follower")
        + metric_value(samples, "repro_service_singleflight_total",
                       role="follower"),
        "rc_hits": metric_value(samples, "repro_result_cache_requests_total",
                                status="hit"),
        "rc_lookups": metric_value(samples, "repro_result_cache_requests_total"),
    }
    for span in ("service.request", "service.execute", "service.trace"):
        out[span] = metric_value(samples, "repro_span_seconds_sum", span=span)
        out[span + "#"] = metric_value(samples, "repro_span_seconds_count",
                                       span=span)
    return out


def _traced(ctx, result, plan, cluster, check, nominal_n):
    """Nominal rate untraced, then traced; per-layer numbers come from the
    traced half plus shard ``/metrics`` deltas across it."""
    plain_specs = plan.requests(nominal_n)
    traced_specs = plan.requests(nominal_n)
    result.inputs = digest([plan.catalog, plain_specs, traced_specs])
    plain, _ = open_loop(cluster.port, plain_specs, NOMINAL_RPS, check)
    before = _scrape(cluster)
    tracer = Tracer()
    traced, backlog = open_loop(cluster.port, traced_specs, NOMINAL_RPS,
                                check, tracer=tracer)
    after = _scrape(cluster)
    _count(plain, result)
    _count(traced, result)
    delta = {key: after[key] - before[key] for key in after}

    layers = empty_layers()
    for tier in SERVICE_TIERS:
        mine = [1000.0 * (o.end - o.start) for o in traced if o.tier == tier]
        layers[f"service.latency_ms.{tier}"] = percentile(mine, 50)
        layers[f"service.requests.{tier}"] = float(len(mine))
    # A router hit echoes the stored response, including the elapsed_ms
    # of the execution that produced it, so only shard answers count.
    overhead = [1000.0 * (o.end - o.start) - o.server_ms for o in traced
                if o.ok and o.tier != "router-hit"]
    layers["service.overhead_ms"] = percentile(overhead, 50)
    layers["service.shed"] = delta["shed"]
    layers["service.singleflight_followers"] = delta["followers"]
    requests = delta["service.request#"]
    if requests:
        execute, trace_s = delta["service.execute"], delta["service.trace"]
        layers["service.request_self_ms"] = 1000.0 * (
            delta["service.request"] - execute - trace_s) / requests
        layers["service.execute_self_ms"] = 1000.0 * execute / requests
        layers["service.trace_self_ms"] = 1000.0 * trace_s / requests
    layers["experiments.resultcache.lookups"] = delta["rc_lookups"]
    layers["experiments.resultcache.hit_ratio"] = (
        delta["rc_hits"] / delta["rc_lookups"] if delta["rc_lookups"] else 0.0)
    layers["loadgen.late_ms_p99"] = percentile([o.late_ms for o in traced], 99)
    layers["loadgen.backlog_max"] = float(backlog)
    plain_p50 = percentile([o.latency_ms for o in plain], 50)
    traced_p50 = percentile([o.latency_ms for o in traced], 50)
    layers["bench.tracing_overhead_pct"] = 100.0 * (traced_p50 / plain_p50 - 1.0)
    tracer.write(ctx.dir.path.parent / f"spans-serve-zipf-{ctx.seed}.jsonl")
    result.layers = layers
    result.named = [("serve_ms_p50_untraced", plain_p50, "ms"),
                    ("serve_ms_p50_traced", traced_p50, "ms")]
    return result
