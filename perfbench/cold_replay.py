"""Workload ``cold-replay``: a long-lived process replaying distinct traces.

Each op is one cold replay: ``experiments.common.get_trace`` synthesizes
a never-seen ``(app, seed)`` trace (the trace and result caches are
private and start empty), then ``run_directory``/``run_bus`` replays it
under one configuration of a fixed mix.  Synthesis, pack, digest,
placement and kernel DFA growth carry the time: this is what a serving
shard pays per miss.

Inputs come from a fixed universe of ``(app, trace seed)`` pairs whose
results have golden digests; ``--seed`` picks the order, so no pair is
replayed twice in one run.  The trace seed also fixes the configuration
(``MIX[(seed - SEED_BASE) % len(MIX)]``), and each app's stream cycles
through every configuration every ``len(MIX)`` replays, so any prefix of
the stream has a balanced app x configuration mix.
"""

from __future__ import annotations

import itertools
import os
import random
from contextlib import nullcontext
from time import perf_counter

from repro.directory.policy import policy_by_name
from repro.experiments import common, resultcache
from repro.kernels import registry
from repro.snooping.protocols import AdaptiveSnoopingProtocol, MesiProtocol
from repro.system.machine import DirectoryMachine

from golden import Golden
from layers import (KernelCounters, empty_layers, patch_simulator,
                    regime_rows, resultcache_layers, span_layers,
                    table_sizes)
from measure import (Result, Timed, digest, percentile, self_peak_rss_mb,
                     timed_setup)
from spans import Tracer

APPS = ("cholesky", "locusroute", "mp3d", "pthor", "water")
SCALE = 0.02
NUM_PROCS = 16
SEED_BASE = 100_000
#: Trace seeds per app = GROUPS * len(MIX).
GROUPS = 16
MIX = (
    ("directory", "conventional", 64 * 1024),
    ("directory", "conventional", None),
    ("directory", "basic", 64 * 1024),
    ("directory", "basic", None),
    ("directory", "aggressive", 64 * 1024),
    ("directory", "aggressive", None),
    ("bus", "adaptive", 64 * 1024),
    ("bus", "mesi", 64 * 1024),
)
#: Replays after the first-sight phase (3 whole rounds): p90 then has
#: >= 10 samples beyond.  The stream always stops at a round boundary.
MIN_REPLAYS = 3 * len(APPS) * len(MIX)
#: ``peak_rss_mb`` is read after this many replays, so it measures a
#: fixed amount of work however many replays fit in the run.
RSS_AFTER = 100
MODULES = ("repro.experiments.common", "repro.experiments.resultcache",
           "repro.snooping.protocols")


def universe():
    """Every ``(app, trace seed)`` pair with a golden digest."""
    for app in APPS:
        for seed in range(SEED_BASE, SEED_BASE + GROUPS * len(MIX)):
            yield app, seed


def config_of(trace_seed: int) -> tuple:
    return MIX[(trace_seed - SEED_BASE) % len(MIX)]


def replay(app: str, trace_seed: int) -> tuple[dict, int]:
    """One cold replay; returns ``(stats payload, accesses)``."""
    trace = common.get_trace(app, NUM_PROCS, trace_seed, SCALE)
    engine, name, cache_size = config_of(trace_seed)
    if engine == "directory":
        stats = common.run_directory(trace, policy_by_name(name), cache_size,
                                     num_procs=NUM_PROCS)
        return resultcache.encode_message_stats(stats), len(trace)
    protocol = AdaptiveSnoopingProtocol() if name == "adaptive" else MesiProtocol()
    stats = common.run_bus(trace, protocol, cache_size, num_procs=NUM_PROCS)
    return resultcache.encode_bus_stats(stats), len(trace)


#: The traced run's kernel regime rows replay this app and configuration.
REGIME = ("water", ("directory", "basic", 64 * 1024))


def plan(seed: int, first_sight: int):
    """``(first_sight_pairs, stream_pairs, regime_pair)`` for one run.

    Each app's trace seeds come in groups of ``len(MIX)``, one per
    configuration, shuffled.  The first-sight replays take one group of
    their own, so in the stream every round of ``len(APPS) * len(MIX)``
    replays covers each (app, configuration) pair exactly once.  First-sight
    replay ``j`` takes configuration ``j`` of app ``j mod len(APPS)``, so
    the reserved groups keep the :data:`REGIME` pair (water, configuration
    2) unused for the traced run.
    """
    rng = random.Random(f"cold-replay:{seed}")
    groups = {}
    for app in APPS:
        groups[app] = []
        for group in rng.sample(range(GROUPS), GROUPS):
            configs = list(range(len(MIX)))
            rng.shuffle(configs)
            groups[app].append([SEED_BASE + group * len(MIX) + c
                                for c in configs])
    reserved = {app: groups[app].pop() for app in APPS}
    first = []
    for j in range(first_sight):
        app = APPS[j % len(APPS)]
        pick = next(s for s in reserved[app]
                    if (s - SEED_BASE) % len(MIX) == j % len(MIX))
        first.append((app, pick))
    app, config = REGIME
    regime = next((app, s) for s in reserved[app] if config_of(s) == config)
    assert regime not in first
    stream = [(app, seed)
              for round_ in zip(*(groups[app] for app in APPS))
              for position in range(len(MIX))
              for app, seed in zip(APPS, (g[position] for g in round_))]
    return first, stream, regime


def run(ctx) -> Result:
    result = Result()
    reps = itertools.count()

    def setup():
        rep = next(reps)
        os.environ["REPRO_TRACE_CACHE"] = str(ctx.dir.sub(f"traces-{rep}"))
        os.environ["REPRO_RESULT_CACHE"] = str(ctx.dir.sub(f"results-{rep}"))
        common.clear_caches()
        resultcache.clear_memory()
        resultcache.reset_counts()
        registry.clear()
        return Golden("cold-replay", ctx.corrupt_golden), plan(
            ctx.seed, 2 if ctx.tiny else len(MIX))

    setup_s, (golden, (first, stream, regime)) = timed_setup(MODULES, setup)
    result.inputs = digest([first, stream])
    tracer = Tracer() if ctx.trace else None
    counters = KernelCounters()
    min_replays = 3 if ctx.tiny else MIN_REPLAYS
    round_len = 1 if ctx.tiny else len(APPS) * len(MIX)
    cycle = 1 if ctx.tiny else len(APPS)
    deadline = perf_counter() + ctx.seconds

    first_ms = []
    for app, seed in first:
        counters.collect()
        registry.clear()
        t0 = perf_counter()
        payload, _ = replay(app, seed)
        first_ms.append(1000.0 * (perf_counter() - t0))
        result.op(golden.check(f"{app}/{seed}", payload))
    counters.collect()
    lookups0 = resultcache.counts()

    times = {False: [], True: []}
    # Every stream replay, in order: measured ms, ms scaled by the host
    # factor (measure.Timed), accesses.
    replay_ms, scaled_ms, sizes = [], [], []
    rss = 0.0
    done = 0
    for done, (app, seed) in enumerate(stream, 1):
        # The traced run alternates untraced and traced app cycles (one
        # replay per app), so both halves see the same mix and the same
        # DFA warmth; their difference is the tracing overhead.
        traced = tracer is not None and (done - 1) // cycle % 2 == 1
        if traced and not tracer.patched:
            patch_simulator(tracer)
        elif not traced and tracer is not None:
            tracer.unpatch()
        span = tracer.span("bench.replay", op=done) if traced else nullcontext()
        with Timed() as timing, span:
            payload, n = replay(app, seed)
        replay_ms.append(1000.0 * timing.seconds)
        scaled_ms.append(1000.0 * timing.scaled)
        times[traced].append(replay_ms[-1])
        sizes.append(n)
        result.op(golden.check(f"{app}/{seed}", payload))
        if done == RSS_AFTER:
            rss = self_peak_rss_mb()
        if (perf_counter() >= deadline and done >= min_replays
                and done % round_len == 0):
            break
    if tracer is not None:
        tracer.unpatch()
    rss = rss or self_peak_rss_mb()

    # p50 and throughput are medians over whole rounds, so a slow spell
    # of the host moves a round, not the figure; p90 pools every replay.
    rounds = range(0, len(scaled_ms), round_len)
    p50 = percentile([percentile(scaled_ms[i:i + round_len], 50)
                      for i in rounds], 50)
    p90 = percentile(scaled_ms, 90)
    kacc_per_s = percentile([sum(sizes[i:i + round_len])
                             / sum(scaled_ms[i:i + round_len])
                             for i in rounds], 50)  # accesses per ms = k/s
    result.end_to_end = {
        "setup_s": setup_s, "peak_rss_mb": rss, "op_ms_p50": p50,
        "op_ms_tail": p90, "throughput": 1000.0 * kacc_per_s,
    }
    result.named = [
        ("replay_ms_p50", p50, "ms"), ("replay_ms_p90", p90, "ms"),
        ("replay_kacc_per_s", kacc_per_s, "kacc/s"),
        ("first_sight_ms", percentile(first_ms, 50), "ms"),
        ("replay_ms_p50_measured", percentile(replay_ms, 50), "ms"),
        ("replay_kacc_per_s_measured", sum(sizes) / sum(replay_ms), "kacc/s"),
        ("replays", float(len(replay_ms)), "count"),
    ]
    if tracer is not None:
        result.layers = _layers(ctx, result, tracer, counters, times,
                                lookups0, regime)
        tracer.write(ctx.dir.path.parent / f"spans-cold-replay-{ctx.seed}.jsonl")
    return result


def _layers(ctx, result, tracer, counters, times, lookups0, regime):
    layers = empty_layers()
    layers.update(span_layers(tracer, len(times[True]), "bench.replay"))
    layers.update(counters.layers())
    layers.update(table_sizes())
    layers.update(resultcache_layers(lookups0))
    if times[True] and times[False]:
        traced = sum(times[True]) / len(times[True])
        plain = sum(times[False]) / len(times[False])
        layers["bench.tracing_overhead_pct"] = 100.0 * (traced / plain - 1.0)
    # Kernel regimes on one unseen trace (REGIME).
    app, seed = regime
    trace = common.get_trace(app, NUM_PROCS, seed, SCALE)
    config = common.directory_config(65536, num_procs=NUM_PROCS)
    placement = common.get_placement("best_static", trace, config)
    policy = policy_by_name("basic")
    layers.update(regime_rows(
        lambda: DirectoryMachine(config, policy, placement), trace,
        reps=1 if ctx.tiny else 3))
    result.named.append(("regime_trace", float(seed), "seed"))
    return layers
