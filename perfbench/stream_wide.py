"""Workload ``stream-wide``: the streaming kernel backend on wide streams.

A pass feeds one generated access stream, chunk by chunk, through
``kernels.streaming`` (bus machine, adaptive protocol, infinite caches)
and finishes it; the final ``BusStats`` are checked against a golden
digest.  Each stream touches :data:`BLOCKS` distinct blocks, far more
than the :data:`CHUNK` accesses of one chunk, so most walks continue a
block seen in an earlier chunk.  Half of the accesses come as migratory
read-then-write pairs by one processor.  Every pass starts with an empty
kernel registry, so each pass is the same first-sight stream.

An op is one chunk ``feed``; chunk generation is not timed.  ``--seed``
picks the order of the streams from :data:`STREAM_SEEDS`.
"""

from __future__ import annotations

import itertools
import os
import random
import tracemalloc
from array import array
from contextlib import nullcontext
from time import perf_counter

from repro.common.config import CacheConfig, MachineConfig
from repro.experiments import resultcache
from repro.kernels import registry, streaming
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import AdaptiveSnoopingProtocol
from repro.trace.packed import PackedTrace

from golden import Golden
from layers import (KernelCounters, empty_layers, patch_simulator,
                    span_layers, table_sizes)
from measure import (Result, Timed, digest, percentile, self_peak_rss_mb,
                     timed_setup)
from spans import Tracer

BLOCKS = 100_000
ACCESSES = 200_000
CHUNK = 4096
BLOCK_SIZE = 16
NUM_PROCS = 16
STREAM_SEEDS = tuple(range(300_000, 300_048))
#: Complete passes per run at least: 3 passes give > 100 chunk ops.
MIN_PASSES = 3
MODULES = ("repro.kernels.streaming", "repro.snooping.machine")
CONFIG = MachineConfig(num_procs=NUM_PROCS,
                       cache=CacheConfig(size_bytes=None, block_size=BLOCK_SIZE))


def chunks(seed: int, accesses: int = ACCESSES):
    """The stream ``seed`` as :class:`PackedTrace` chunks of CHUNK accesses."""
    rng = random.Random(seed)
    randrange, rand = rng.randrange, rng.random
    emitted = 0
    while emitted < accesses:
        n = min(CHUNK, accesses - emitted)
        procs, ops, addrs = array("q"), array("b"), array("q")
        while len(procs) < n:
            proc = randrange(NUM_PROCS)
            addr = randrange(BLOCKS) * BLOCK_SIZE + 4 * randrange(4)
            if rand() < 0.5 and len(procs) + 2 <= n:
                procs.extend((proc, proc))
                ops.extend((0, 1))
                addrs.extend((addr, addr))
            else:
                procs.append(proc)
                ops.append(1 if rand() < 0.2 else 0)
                addrs.append(addr)
        emitted += n
        yield PackedTrace(procs, ops, addrs, name=f"stream-{seed}")


def reference_stats(seed: int, accesses: int = ACCESSES) -> dict:
    """Final stats of stream ``seed`` replayed whole by ``machine.run`` on
    the reference path (kernels disabled)."""
    columns = (array("q"), array("b"), array("q"))
    for chunk in chunks(seed, accesses):
        for column, part in zip(columns, (chunk.procs, chunk.ops, chunk.addrs)):
            column.extend(part)
    machine = BusMachine(CONFIG, AdaptiveSnoopingProtocol())
    with registry.disabled():
        stats = machine.run(PackedTrace(*columns))
    return resultcache.encode_bus_stats(stats)


def run(ctx) -> Result:
    result = Result()
    rng = random.Random(f"stream-wide:{ctx.seed}")
    order = rng.sample(STREAM_SEEDS, len(STREAM_SEEDS))
    accesses = ACCESSES
    if ctx.tiny:  # short streams, checked against the reference below
        order, accesses = order[:4], 3 * CHUNK
    result.inputs = digest([order, accesses])
    reps = itertools.count()

    def setup():
        rep = next(reps)
        os.environ["REPRO_TRACE_CACHE"] = str(ctx.dir.sub(f"traces-{rep}"))
        os.environ["REPRO_RESULT_CACHE"] = str(ctx.dir.sub(f"results-{rep}"))
        registry.clear()
        return Golden("stream-wide", ctx.corrupt_golden)

    setup_s, golden = timed_setup(MODULES, setup)
    if ctx.tiny:
        golden.table = {str(s): digest(reference_stats(s, accesses))
                        for s in order}

    tracer = Tracer() if ctx.trace else None
    counters = KernelCounters()
    feed_ms = {False: [], True: []}
    pass_s = {False: [], True: []}
    finish_ms = []
    # Untraced passes scaled by the host factor (measure.Timed): chunk
    # feed ms, each pass's feed p50 and each pass's feed + finish seconds.
    scaled_ms, pass_p50s, scaled_pass_s = [], [], []
    chunk_count = -(-accesses // CHUNK)
    rss = 0.0
    deadline = perf_counter() + ctx.seconds
    min_passes = 1 if ctx.tiny else MIN_PASSES
    passes = 0
    for seed in order:
        traced = tracer is not None and passes % 2 == 1
        counters.collect()
        registry.clear()
        if traced:
            patch_simulator(tracer)
        root = tracer.span("bench.pass", op=passes) if traced else nullcontext()
        total = scaled = 0.0
        with root:
            machine = BusMachine(CONFIG, AdaptiveSnoopingProtocol())
            replay = streaming.stream_replay_for(machine)
            stream = chunks(seed, accesses)
            while True:
                with tracer.span("bench.generate") if traced else nullcontext():
                    chunk = next(stream, None)
                if chunk is None:
                    break
                span = tracer.span("stream.feed") if traced else nullcontext()
                with Timed(not traced) as timing, span:
                    replay.feed(chunk)
                feed_ms[traced].append(1000.0 * timing.seconds)
                total += timing.seconds
                scaled += timing.scaled
                if not traced:
                    scaled_ms.append(1000.0 * timing.scaled)
            span = tracer.span("stream.finish") if traced else nullcontext()
            with Timed(not traced) as timing, span:
                stats = replay.finish()
        if tracer is not None:
            tracer.unpatch()
        total += timing.seconds
        pass_s[traced].append(total)
        if not traced:
            finish_ms.append(1000.0 * timing.seconds)
            pass_p50s.append(percentile(scaled_ms[-chunk_count:], 50))
            scaled_pass_s.append(scaled + timing.scaled)
        passes += 1
        rss = rss or self_peak_rss_mb()
        result.op(golden.check(str(seed), resultcache.encode_bus_stats(stats)))
        if (perf_counter() >= deadline and passes >= min_passes
                and (tracer is None or pass_s[True])):
            break

    # Medians over passes: a slow spell of the host moves a few passes,
    # not the figure.  p90 pools the chunks (>= 10 samples beyond it).
    p50 = percentile(pass_p50s, 50)
    p90 = percentile(scaled_ms, 90)
    kacc_per_s = accesses / percentile(scaled_pass_s, 50) / 1000.0
    result.end_to_end = {
        "setup_s": setup_s, "peak_rss_mb": rss, "op_ms_p50": p50,
        "op_ms_tail": p90, "throughput": 1000.0 * kacc_per_s,
    }
    result.named = [
        ("stream_kacc_per_s", kacc_per_s, "kacc/s"),
        ("feed_ms_p50", p50, "ms"), ("feed_ms_p90", p90, "ms"),
        ("feed_ms_p50_measured", percentile(feed_ms[False], 50), "ms"),
        ("stream_kacc_per_s_measured",
         accesses / percentile(pass_s[False], 50) / 1000.0, "kacc/s"),
        ("finish_ms", percentile(finish_ms, 50), "ms"),
        ("passes", float(len(pass_s[False])), "count"),
    ]
    if tracer is not None:
        layers = empty_layers()
        layers.update(span_layers(tracer, len(feed_ms[True]), "bench.pass"))
        layers.update(counters.layers())
        layers["bench.tracing_overhead_pct"] = 100.0 * (
            percentile(pass_s[True], 50) / percentile(pass_s[False], 50) - 1.0)
        layers.update(table_sizes())  # after the last pass, before clearing
        layers["stream.feed_peak_mb"] = _feed_peak_mb(order[passes % len(order)],
                                                      accesses)
        tracer.write(ctx.dir.path.parent / f"spans-stream-wide-{ctx.seed}.jsonl")
        result.layers = layers
    return result


def _feed_peak_mb(seed: int, accesses: int) -> float:
    """tracemalloc peak (MB) over the feed phase of one extra pass."""
    registry.clear()
    machine = BusMachine(CONFIG, AdaptiveSnoopingProtocol())
    replay = streaming.stream_replay_for(machine)
    tracemalloc.start()
    try:
        for chunk in chunks(seed, accesses):
            replay.feed(chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    replay.finish()
    return peak / (1024.0 * 1024.0)

