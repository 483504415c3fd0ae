"""Per-layer metrics: the fixed names, the simulator's layer boundaries,
and the kernel registry counters.

Every traced run reports every name in :data:`PER_LAYER` (BENCHMARK.json
lists the same names); a layer a workload never enters reads 0.
serve-zipf, which BENCHMARK.json does not list, adds :data:`SERVE_LAYERS`.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from repro.experiments import common, resultcache
from repro.kernels import registry
from repro.snooping.machine import BusMachine
from repro.system.machine import DirectoryMachine
from repro.trace import diskcache
from repro.trace.core import Trace
from repro.trace.packed import PackedTrace

from measure import percentile

#: Kernel fallback reasons the simulator can record (``record_fallback``
#: sites and ``kernel_fallback_reason`` attributes under ``src/``).
FALLBACK_REASONS = (
    "block-messages", "cache-type", "disabled", "eviction-silent",
    "family-unkerneled", "finite-cache", "machine-subclass", "not-fresh",
    "num-procs", "placement", "protocol-type", "replacement-random",
    "representation", "step-hook", "symbol-range", "table-unsupported",
    "trace-procs", "unsupported", "walk-abort",
)

#: Span name -> per-layer metric (self time, ms per benchmark op).
SELF_TIME_LAYERS = {
    "workloads.build": "workloads.build_ms",
    "trace.pack": "trace.pack_ms",
    "trace.digest": "trace.digest_ms",
    "trace.load": "trace.load_ms",
    "trace.store": "trace.store_ms",
    "system.placement": "system.placement_ms",
    "system.machine_init": "system.machine_init_ms",
    "kernels.run": "kernels.run_ms",
    "experiments.resultcache": "experiments.resultcache_ms",
    "experiments.cell": "experiments.cell_self_ms",
    "stream.feed": "stream.feed_ms",
    "stream.finish": "stream.finish_ms",
}

SERVICE_TIERS = ("router-hit", "shard-hit", "executed", "coalesced")

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    *((name, "ms") for name in SELF_TIME_LAYERS.values()),
    ("experiments.cell_ms", "ms"),
    ("bench.op_self_ms", "ms"),
    ("bench.unaccounted_pct", "%"),
    ("bench.tracing_overhead_pct", "%"),
    ("kernels.dfa_nodes", "count"),
    ("kernels.memo_entries", "count"),
    ("kernels.engaged_ratio", "ratio"),
    ("kernels.fallbacks", "count"),
    *((f"kernels.fallback.{reason}", "count") for reason in FALLBACK_REASONS),
    ("kernels.run_ms.first_sight", "ms"),
    ("kernels.run_ms.dfa_warm", "ms"),
    ("kernels.run_ms.memo_warm", "ms"),
    ("experiments.resultcache.hit_ratio", "ratio"),
    ("experiments.resultcache.lookups", "count"),
    ("stream.feed_peak_mb", "MB"),
)

#: (name, unit) of the serving layers, reported by serve-zipf only.
SERVE_LAYERS = (
    *((f"service.latency_ms.{tier}", "ms") for tier in SERVICE_TIERS),
    *((f"service.requests.{tier}", "count") for tier in SERVICE_TIERS),
    ("service.overhead_ms", "ms"),
    ("service.shed", "count"),
    ("service.singleflight_followers", "count"),
    ("service.request_self_ms", "ms"),
    ("service.execute_self_ms", "ms"),
    ("service.trace_self_ms", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.backlog_max", "count"),
)


def empty_layers() -> dict[str, float]:
    return {name: 0.0 for name, _unit in (*PER_LAYER, *SERVE_LAYERS)}


def patch_simulator(tracer) -> None:
    """Span every in-process simulator layer boundary a replay crosses."""
    tracer.patch(common, "run_directory", "experiments.cell")
    tracer.patch(common, "run_bus", "experiments.cell")
    tracer.patch(common, "build_app", "workloads.build")
    tracer.patch(Trace, "pack", "trace.pack")
    tracer.patch(PackedTrace, "digest", "trace.digest")
    tracer.patch(PackedTrace, "load", "trace.load")
    tracer.patch(diskcache, "store", "trace.store")
    tracer.patch(common, "make_placement", "system.placement")
    for machine in (DirectoryMachine, BusMachine):
        tracer.patch(machine, "__init__", "system.machine_init")
        tracer.patch(machine, "run", "kernels.run")
    for name in ("fetch", "store", "result_key", "config_digest",
                 "policy_digest", "protocol_digest"):
        tracer.patch(resultcache, name, "experiments.resultcache")


def span_layers(tracer, ops: int, root: str) -> dict[str, float]:
    """Self-time layers (ms per op) plus the unaccounted share of ``root``.

    ``root`` is the span the benchmark opens around each op; its self time
    is the op time no layer span covers.
    """
    self_times = tracer.self_times()
    totals = tracer.totals()
    out = {}
    for span_name, metric in SELF_TIME_LAYERS.items():
        out[metric] = 1000.0 * self_times.get(span_name, 0.0) / max(ops, 1)
    cells = sum(1 for span in tracer.spans if span[0] == "experiments.cell")
    out["experiments.cell_ms"] = (
        1000.0 * totals.get("experiments.cell", 0.0) / max(cells, 1))
    root_total = totals.get(root, 0.0)
    out["bench.op_self_ms"] = 1000.0 * self_times.get(root, 0.0) / max(ops, 1)
    out["bench.unaccounted_pct"] = (
        100.0 * self_times.get(root, 0.0) / root_total if root_total else 0.0)
    return out


class KernelCounters:
    """Deltas of the kernel registry's engagement/fallback counters."""

    def __init__(self):
        self.engaged = Counter()
        self.fallbacks = Counter()
        self._mark()

    def _mark(self) -> None:
        self._engaged0 = Counter(registry.engagements)
        self._fallbacks0 = Counter(registry.fallbacks)

    def collect(self) -> None:
        """Fold the counts since the last mark in (call before a
        ``registry.clear()``, which zeroes the registry's counters)."""
        self.engaged += Counter(registry.engagements) - self._engaged0
        self.fallbacks += Counter(registry.fallbacks) - self._fallbacks0
        self._mark()

    def layers(self) -> dict[str, float]:
        self.collect()
        engaged = sum(self.engaged.values())
        fell = sum(self.fallbacks.values())
        by_reason = Counter()
        for (_engine, reason), count in self.fallbacks.items():
            by_reason[reason if reason in FALLBACK_REASONS else "unsupported"] += count
        out = {
            "kernels.engaged_ratio": engaged / (engaged + fell) if engaged + fell else 0.0,
            "kernels.fallbacks": float(fell),
        }
        for reason in FALLBACK_REASONS:
            out[f"kernels.fallback.{reason}"] = float(by_reason[reason])
        return out


def resultcache_layers(before: dict) -> dict[str, float]:
    """Result-cache hit ratio and lookups since ``resultcache.counts()``
    returned ``before`` (0 lookups reads as a 0 ratio)."""
    now = resultcache.counts()
    hits = now["hits"] - before["hits"]
    lookups = hits + now["misses"] - before["misses"]
    return {"experiments.resultcache.hit_ratio": hits / lookups if lookups else 0.0,
            "experiments.resultcache.lookups": float(lookups)}


def table_sizes() -> dict[str, float]:
    """DFA nodes and memoized walk results held by the kernel registry."""
    tables = [*registry._dir_tables.values(), *registry._bus_tables.values()]
    return {
        "kernels.dfa_nodes": float(sum(len(t.nodes) for t in tables)),
        "kernels.memo_entries": float(sum(
            len(t.seq_results) + len(t.group_results) for t in tables)),
    }


def clear_walk_memos() -> None:
    """Drop memoized walk results but keep every compiled DFA node."""
    for table in [*registry._dir_tables.values(),
                  *registry._bus_tables.values()]:
        table.seq_results.clear()
        table.group_results.clear()


def regime_rows(make_machine, trace, reps: int = 3) -> dict[str, float]:
    """``machine.run`` time (ms, median of ``reps``) in the three kernel
    regimes: first sight (empty registry), DFA-warm (compiled nodes kept,
    walk memos cleared) and memo-warm (an identical repeat)."""
    def timed() -> float:
        machine = make_machine()
        started = perf_counter()
        machine.run(trace)
        return 1000.0 * (perf_counter() - started)

    first, dfa, memo = [], [], []
    for _ in range(reps):
        registry.clear()
        first.append(timed())
    for _ in range(reps):
        clear_walk_memos()
        dfa.append(timed())
    for _ in range(reps):
        memo.append(timed())
    return {
        "kernels.run_ms.first_sight": percentile(first, 50),
        "kernels.run_ms.dfa_warm": percentile(dfa, 50),
        "kernels.run_ms.memo_warm": percentile(memo, 50),
    }
