"""Record simulator throughput before/after numbers.

Measures the directory- and bus-machine trace-replay benchmark (the same
workload as ``test_simulator_throughput.py``) on the current tree —
table-driven kernel, the reference path over packed columns (kernels
disabled via ``REPRO_NO_KERNEL``; recorded under the historical
``packed`` label, which measured the hit-retiring packed loop before
the kernels replaced it), and generic per-``Access`` path — and writes
the results to ``BENCH_throughput.json``.

Two extra sections cover the widened kernel envelope:

* ``*_evicting`` rows re-run the kernel-vs-packed comparison on a
  finite 256-byte 4-way cache whose conflict sets force real
  evictions, so the eviction-aware group walks (not the conflict-free
  per-block walks) carry the replay.
* the ``streaming`` section replays a million-block trace fed chunk by
  chunk from a generator through the streaming backend, recording the
  feed-phase allocation peak next to the batch path's peak (which must
  materialise the whole trace first).  Skip it with ``--no-stream``
  (the previously recorded section is carried forward).

Each configuration is timed in its own subprocess (min over
``--rounds`` process launches of the min over ``--reps`` in-process
repetitions), and configurations are interleaved across rounds so slow
periods of a noisy machine hit every configuration equally.

To refresh the pre-optimization baseline, point ``--baseline-src`` at a
checkout of the code to compare against (e.g. a git worktree of the
commit before the packed-trace work)::

    python benchmarks/record_throughput.py --baseline-src /path/to/old/src

Without ``--baseline-src`` the previously recorded ``before`` section of
``BENCH_throughput.json`` is carried forward unchanged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT_PATH = REPO / "BENCH_throughput.json"

#: Number of accesses in the benchmark trace (for throughput figures).
_TIMER_BODY = r'''
import sys, time
sys.path.insert(0, sys.argv[1])
machine_kind, representation, reps = sys.argv[2], sys.argv[3], int(sys.argv[4])
geometry = sys.argv[5] if len(sys.argv) > 5 else "base"
from repro.common.config import CacheConfig, MachineConfig
from repro.trace import synth

# "evicting" shrinks the caches to 16 lines over 4 sets: with 32
# distinct blocks in the trace every set conflicts, so the replay has
# to take the eviction-aware group walks.
size_bytes = 64 * 1024 if geometry == "base" else 256
CFG = MachineConfig(num_procs=16,
                    cache=CacheConfig(size_bytes=size_bytes, block_size=16))
TRACE = synth.interleave(
    [synth.migratory(num_procs=16, num_objects=16, visits=50, seed=1),
     synth.read_shared(num_procs=16, num_objects=16, rounds=20,
                       base=1 << 20, seed=2)],
    chunk=8, seed=3)

if representation == "unpacked":
    trace = list(TRACE)
else:
    trace = TRACE
    pack = getattr(TRACE, "pack", None)
    if pack is not None:  # resolve columns outside the timed region
        packed = pack()
        packed.blocks_column(4)
        split = getattr(packed, "block_sequences", None)
        if split is not None:
            split(4)
    if representation == "packed":
        # Pin the reference path (the packed loop on trees that still
        # have one) so the row measures it, not the table-driven kernel
        # (older trees ignore the variable).
        import os
        os.environ["REPRO_NO_KERNEL"] = "1"

if machine_kind == "directory":
    from repro.directory.policy import AGGRESSIVE
    from repro.system.machine import DirectoryMachine
    make = lambda: DirectoryMachine(CFG, AGGRESSIVE)
else:
    from repro.snooping.machine import BusMachine
    from repro.snooping.protocols import AdaptiveSnoopingProtocol
    make = lambda: BusMachine(CFG, AdaptiveSnoopingProtocol())

make().run(trace)  # warm-up
best = float("inf")
for _ in range(reps):
    machine = make()
    t0 = time.perf_counter()
    machine.run(trace)
    best = min(best, time.perf_counter() - t0)
print(f"{len(TRACE)} {best}")
'''


_STREAM_BODY = r'''
import json, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
mode = sys.argv[2]
from array import array
from repro.common.config import CacheConfig, MachineConfig
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import AdaptiveSnoopingProtocol
from repro.trace.packed import PackedTrace

BLOCKS, TOTAL, CHUNK = 1_000_000, 4_000_000, 65_536
CFG = MachineConfig(num_procs=16,
                    cache=CacheConfig(size_bytes=None, block_size=16))


def columns(start, count):
    span = range(start, start + count)
    return (array("q", [(i * 7) % 16 for i in span]),
            array("b", [1 if i % 3 == 0 else 0 for i in span]),
            array("q", [(i % BLOCKS) * 16 for i in span]))


machine = BusMachine(CFG, AdaptiveSnoopingProtocol())
if mode == "stream":
    # The trace never exists in full: each chunk is synthesized, fed,
    # and dropped.  The feed-phase peak is the streaming claim; the
    # total peak adds finish()'s machine line objects, which every
    # replay path pays.
    from repro.kernels.streaming import BusStreamReplay
    replay = BusStreamReplay(machine)
    tracemalloc.start()
    started = time.perf_counter()
    for start in range(0, TOTAL, CHUNK):
        replay.feed(PackedTrace(*columns(start, min(CHUNK, TOTAL - start))))
    feed_peak = tracemalloc.get_traced_memory()[1]
    replay.finish()
    elapsed = time.perf_counter() - started
    total_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out = {"seconds": elapsed, "feed_peak": feed_peak,
           "total_peak": total_peak}
else:
    # Batch path: the whole packed trace is materialised first, then
    # replayed by the batch kernel; its peak includes the trace.
    tracemalloc.start()
    started = time.perf_counter()
    packed = PackedTrace(*columns(0, TOTAL))
    machine.run(packed)
    elapsed = time.perf_counter() - started
    total_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    out = {"seconds": elapsed, "total_peak": total_peak}
stats = machine.cache_stats
covered = (stats.read_hits + stats.read_misses
           + stats.write_hits + stats.write_misses)
if covered != TOTAL:
    raise SystemExit(f"replay covered {covered} of {TOTAL} accesses")
print(json.dumps(out))
'''


def measure_streaming(src: Path) -> dict:
    """One-shot streaming-vs-batch replay of the million-block trace."""
    results = {}
    for mode in ("stream", "batch"):
        out = subprocess.run(
            [sys.executable, "-c", _STREAM_BODY, str(src), mode],
            capture_output=True, text=True, check=True,
        )
        results[mode] = json.loads(out.stdout)
    mb = 1024 * 1024
    return {
        "workload": "bus machine, 1,000,000 blocks x 4,000,000 accesses, "
                    "fed in 65,536-access chunks from a generator",
        "trace_mb": round(17 * 4_000_000 / mb, 1),
        "stream_seconds": round(results["stream"]["seconds"], 2),
        "stream_feed_peak_mb": round(results["stream"]["feed_peak"] / mb, 1),
        "stream_total_peak_mb": round(
            results["stream"]["total_peak"] / mb, 1),
        "batch_seconds": round(results["batch"]["seconds"], 2),
        "batch_peak_mb": round(results["batch"]["total_peak"] / mb, 1),
        "batch_vs_stream_feed_peak": round(
            results["batch"]["total_peak"]
            / results["stream"]["feed_peak"], 2),
        "note": "feed peak holds per-block continuation nodes (the "
                "million-block floor) but never the trace itself; total "
                "peaks add the machine's own final line objects, common "
                "to both paths",
    }


def time_config(src: Path, machine: str, representation: str,
                reps: int, geometry: str = "base") -> tuple[int, float]:
    """Best wall time for one (source tree, machine, representation)."""
    out = subprocess.run(
        [sys.executable, "-c", _TIMER_BODY, str(src), machine,
         representation, str(reps), geometry],
        capture_output=True, text=True, check=True,
    )
    accesses, best = out.stdout.split()
    return int(accesses), float(best)


def measure(src: Path, configs: list[tuple[str, str, str]], rounds: int,
            reps: int) -> dict:
    """Interleaved min-of-rounds measurement of every configuration."""
    best: dict[tuple[str, str, str], float] = {c: float("inf")
                                               for c in configs}
    accesses = 0
    for _ in range(rounds):
        for config in configs:
            accesses, elapsed = time_config(src, *config[:2], reps=reps,
                                            geometry=config[2])
            best[config] = min(best[config], elapsed)
    result = {"accesses": accesses}
    for (machine, representation, geometry), elapsed in best.items():
        key = f"{machine}_{representation}"
        if geometry != "base":
            key = f"{key}_{geometry}"
        result[f"{key}_ms"] = round(elapsed * 1e3, 3)
        result[f"{key}_accesses_per_s"] = round(accesses / elapsed)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=6,
                        help="interleaved process launches per config")
    parser.add_argument("--reps", type=int, default=10,
                        help="in-process repetitions per launch")
    parser.add_argument("--baseline-src", type=Path, default=None,
                        help="src/ of the pre-optimization tree to "
                        "re-measure as the 'before' section")
    parser.add_argument("--no-stream", action="store_true",
                        help="skip the million-block streaming replay "
                        "and carry the recorded section forward")
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    configs = [("directory", "kernel", "base"),
               ("directory", "packed", "base"),
               ("directory", "unpacked", "base"),
               ("bus", "kernel", "base"),
               ("bus", "packed", "base"),
               ("bus", "unpacked", "base"),
               ("directory", "kernel", "evicting"),
               ("directory", "packed", "evicting"),
               ("bus", "kernel", "evicting"),
               ("bus", "packed", "evicting")]

    previous = {}
    if args.out.exists():
        previous = json.loads(args.out.read_text())

    after = measure(REPO / "src", configs, args.rounds, args.reps)

    if args.baseline_src is not None:
        # The old tree has no packed representation; both labels run the
        # generic loop, so measure it once under the 'unpacked' label.
        base = measure(args.baseline_src,
                       [("directory", "unpacked", "base"),
                        ("bus", "unpacked", "base")],
                       args.rounds, args.reps)
        before = {
            "accesses": base["accesses"],
            "directory_ms": base["directory_unpacked_ms"],
            "directory_accesses_per_s": base["directory_unpacked_accesses_per_s"],
            "bus_ms": base["bus_unpacked_ms"],
            "bus_accesses_per_s": base["bus_unpacked_accesses_per_s"],
        }
    else:
        before = previous.get("before", {})

    if args.no_stream:
        streaming = previous.get("streaming", {})
    else:
        streaming = measure_streaming(REPO / "src")

    record = {
        "benchmark": "benchmarks/test_simulator_throughput.py "
                     "(16 procs, 64K caches, 16-byte blocks, "
                     "migratory+read_shared interleave; _evicting rows "
                     "rerun on 256-byte 4-way caches)",
        "method": f"min over {args.rounds} interleaved subprocess rounds "
                  f"of min-of-{args.reps} in-process repetitions",
        "before": before,
        "after": after,
        "streaming": streaming,
    }
    record["speedup"] = {
        "directory_kernel_vs_packed": round(
            after["directory_packed_ms"] / after["directory_kernel_ms"], 2),
        "bus_kernel_vs_packed": round(
            after["bus_packed_ms"] / after["bus_kernel_ms"], 2),
        "directory_packed_vs_unpacked": round(
            after["directory_unpacked_ms"] / after["directory_packed_ms"], 2),
        "bus_packed_vs_unpacked": round(
            after["bus_unpacked_ms"] / after["bus_packed_ms"], 2),
        "directory_kernel_vs_packed_evicting": round(
            after["directory_packed_evicting_ms"]
            / after["directory_kernel_evicting_ms"], 2),
        "bus_kernel_vs_packed_evicting": round(
            after["bus_packed_evicting_ms"]
            / after["bus_kernel_evicting_ms"], 2),
    }
    if before:
        record["speedup"].update({
            "directory_packed_vs_before": round(
                before["directory_ms"] / after["directory_packed_ms"], 2),
            "bus_packed_vs_before": round(
                before["bus_ms"] / after["bus_packed_ms"], 2),
            "directory_kernel_vs_before": round(
                before["directory_ms"] / after["directory_kernel_ms"], 2),
            "bus_kernel_vs_before": round(
                before["bus_ms"] / after["bus_kernel_ms"], 2),
        })
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
