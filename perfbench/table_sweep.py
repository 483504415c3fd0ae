"""Workload ``table-sweep``: the paper's tables from prebuilt traces.

One sweep is ``table2.run`` + ``table3.run`` + ``bus.run`` over all five
apps at one scale with ``jobs=1``, rendered as the paper's tables.  The
traces are synthesized into a private trace cache during setup and the
result cache is off, so a sweep spends its time in machine construction,
eviction-aware group walks at finite caches, per-block-size repacks and
DFA/memo reuse across the geometries of one trace.  Every sweep starts
like a fresh ``repro-experiments`` process: kernel registry and in-memory
trace/placement caches cleared, trace disk cache warm.

An op is one table cell (one ``run_directory``/``run_bus`` call).  Each
app's trace seed is drawn by ``--seed`` from :data:`TRACE_SEEDS`; golden
digests cover every app's rows of every table under every such seed.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
from contextlib import nullcontext
from time import perf_counter

from repro.directory.policy import policy_by_name
from repro.experiments import bus, common, resultcache, table2, table3
from repro.kernels import registry
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
TRACE_SEEDS = tuple(range(200_000, 200_008))
#: Measured seconds of one sweep on a 2-vCPU host (about 15 s at the
#: reference speed of measure.host_factor).  A run makes
#: ``round(--seconds / SWEEP_S)`` untraced sweeps, at least one: a fixed
#: count, not "until --seconds has passed", so a run on a fast moment of
#: the host does not add a second sweep that a slow one skips (with the
#: deadline, p90 spread 0.25 IQR/median over 5 runs; with the count, 0.05).
SWEEP_S = 20.0
MODULES = ("repro.experiments.table2", "repro.experiments.table3",
           "repro.experiments.bus")
RENDER = {"table2": table2.render, "table3": table3.render,
          "bus": bus.render}


def sweep(seeds: dict[str, int]) -> dict:
    """Run and render the three tables; rows are in the paper's order."""
    def rows(run, sort_key):
        out = [row for app in seeds
               for row in run(apps=(app,), scale=SCALE, seed=seeds[app],
                              num_procs=NUM_PROCS, jobs=1)]
        return sorted(out, key=sort_key)

    tables = {
        "table2": rows(table2.run, lambda r: (
            table2.CACHE_SIZES.index(r.cache_size), APPS.index(r.app))),
        "table3": rows(table3.run, lambda r: (
            table3.BLOCK_SIZES.index(r.block_size), APPS.index(r.app))),
        "bus": rows(bus.run, lambda r: (
            APPS.index(r.app), bus.BUS_CACHE_SIZES.index(r.cache_size))),
    }
    rendered = {name: RENDER[name](rows_) for name, rows_ in tables.items()}
    return {"rows": tables, "rendered": rendered}


def row_payloads(result: dict, seeds: dict[str, int]) -> dict[str, list]:
    """Golden payload per (table, app, trace seed): the app's rows as data
    plus the same rows rendered in the paper's layout."""
    out = {}
    for name, rows in result["rows"].items():
        for app in seeds:
            mine = [row for row in rows if row.app == app]
            out[f"{name}/{app}/{seeds[app]}"] = [
                [dataclasses.asdict(row) for row in mine], RENDER[name](mine)]
    return out


def run(ctx) -> Result:
    result = Result()
    rng = random.Random(f"table-sweep:{ctx.seed}")
    seeds = {app: rng.choice(TRACE_SEEDS) for app in APPS}
    if ctx.tiny:  # one cheap app: the same code path, a fifth of the work
        seeds = {"locusroute": seeds["locusroute"]}
    result.inputs = digest(seeds)
    reps = itertools.count()

    def setup():
        os.environ["REPRO_TRACE_CACHE"] = str(ctx.dir.sub(f"traces-{next(reps)}"))
        os.environ["REPRO_RESULT_CACHE"] = "off"
        common.clear_caches()
        for app, seed in seeds.items():
            common.get_trace(app, NUM_PROCS, seed, SCALE)
        return Golden("table-sweep", ctx.corrupt_golden)

    setup_s, golden = timed_setup(MODULES, setup)

    # (seconds, accesses, host factor) of each cell of the current sweep.
    cells: list[tuple[float, int, float]] = []
    probe_s = [0.0]

    def timed_cell(original):
        def cell(trace, *args, **kwargs):
            # Traced sweeps are not scaled, so their spans hold no probe.
            with Timed(not (tracer and tracer.patched)) as timing:
                out = original(trace, *args, **kwargs)
            cells.append((timing.seconds, len(trace), timing.factor))
            probe_s[0] += timing.probe_s
            return out
        return cell

    run_directory, run_bus = common.run_directory, common.run_bus
    common.run_directory = timed_cell(run_directory)
    common.run_bus = timed_cell(run_bus)
    tracer = Tracer() if ctx.trace else None
    counters = KernelCounters()
    lookups0 = resultcache.counts()
    sweep_s = {False: [], True: []}
    scaled_sweep_s = []
    cell_times = []
    traced_cells = 0
    rss = 0.0
    planned = max(1, round(ctx.seconds / SWEEP_S))
    try:
        while True:
            # The traced run alternates untraced and traced sweeps; their
            # difference is the tracing overhead.
            traced = tracer is not None and len(sweep_s[False]) > len(sweep_s[True])
            counters.collect()
            registry.clear()
            common.clear_caches()
            if traced:
                patch_simulator(tracer)
            del cells[:]
            probe_s[0] = 0.0
            started = perf_counter()
            with tracer.span("bench.sweep") if traced else nullcontext():
                out = sweep(seeds)
            sweep_s[traced].append(perf_counter() - started - probe_s[0])
            if tracer is not None:
                tracer.unpatch()
            if traced:
                traced_cells += len(cells)
            else:
                cell_times += cells
                # The sweep's time scaled by its cells' time-weighted
                # host factor (the cells are most of the sweep).
                measured = sum(seconds for seconds, _, _ in cells)
                scaled = sum(seconds * factor for seconds, _, factor in cells)
                scaled_sweep_s.append(sweep_s[False][-1] * scaled / measured)
            rss = rss or self_peak_rss_mb()
            for key, payload in row_payloads(out, seeds).items():
                result.op(golden.check(key, payload))
            enough = tracer is None or sweep_s[True]
            if len(sweep_s[False]) >= planned and enough:
                break
    finally:
        common.run_directory, common.run_bus = run_directory, run_bus

    ms = [1000.0 * seconds * factor for seconds, _, factor in cell_times]
    accesses = sum(n for _, n, _ in cell_times)
    p50, p90 = percentile(ms, 50), percentile(ms, 90)
    throughput = accesses / sum(scaled_sweep_s)
    result.end_to_end = {
        "setup_s": setup_s, "peak_rss_mb": rss, "op_ms_p50": p50,
        "op_ms_tail": p90, "throughput": throughput,
    }
    result.named = [
        ("sweep_s", percentile(scaled_sweep_s, 50), "s"),
        ("sweep_s_measured", percentile(sweep_s[False], 50), "s"),
        ("cell_ms_p50", p50, "ms"), ("cell_ms_p90", p90, "ms"),
        ("sweep_kacc_per_s", throughput / 1000.0, "kacc/s"),
        ("sweeps", float(len(sweep_s[False])), "count"),
        ("cells", float(len(ms)), "count"),
    ]
    if tracer is not None:
        layers = empty_layers()
        layers.update(span_layers(tracer, traced_cells, "bench.sweep"))
        layers.update(counters.layers())
        layers.update(table_sizes())
        layers.update(resultcache_layers(lookups0))
        layers["bench.tracing_overhead_pct"] = 100.0 * (
            percentile(sweep_s[True], 50) / percentile(sweep_s[False], 50) - 1.0)
        layers.update(_regimes(ctx, seeds))
        tracer.write(ctx.dir.path.parent / f"spans-table-sweep-{ctx.seed}.jsonl")
        result.layers = layers
    return result


def _regimes(ctx, seeds):
    """Kernel regimes on the sweep's water trace (in a tiny run, its only
    trace) at 4K caches, where conflict sets take group walks; directory
    ``basic``."""
    app = "water" if "water" in seeds else next(iter(seeds))
    trace = common.get_trace(app, NUM_PROCS, seeds[app], SCALE)
    config = common.directory_config(4096, num_procs=NUM_PROCS)
    placement = common.get_placement("best_static", trace, config)
    policy = policy_by_name("basic")
    return regime_rows(lambda: DirectoryMachine(config, policy, placement),
                       trace, reps=1 if ctx.tiny else 3)
