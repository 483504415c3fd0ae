"""Record telemetry overhead numbers.

Measures the same trace-replay benchmark as ``record_throughput.py`` in
three modes per machine and writes ``BENCH_observability.json``:

* ``off_packed`` — no hook installed, packed trace (the kernel fast
  path).  Telemetry is zero-overhead when off, so this must stay within
  noise of the kernel numbers in ``BENCH_throughput.json``.
* ``off_generic`` — no hook, generic per-``Access`` path (the baseline
  a recorder-carrying run should be compared against, since installing
  a hook forces this path).
* ``recorder`` — a telemetry recorder attached (enabled metrics
  registry + in-memory event sink), generic path.

Each configuration is timed in its own subprocess (min over
``--rounds`` process launches of the min over ``--reps`` in-process
repetitions), interleaved across rounds so slow periods of a noisy
machine hit every configuration equally.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT_PATH = REPO / "BENCH_observability.json"
THROUGHPUT_PATH = REPO / "BENCH_throughput.json"

_TIMER_BODY = r'''
import sys, time
sys.path.insert(0, sys.argv[1])
machine_kind, mode, reps = sys.argv[2], sys.argv[3], int(sys.argv[4])
from repro.common.config import CacheConfig, MachineConfig
from repro.trace import synth

CFG = MachineConfig(num_procs=16,
                    cache=CacheConfig(size_bytes=64 * 1024, block_size=16))
TRACE = synth.interleave(
    [synth.migratory(num_procs=16, num_objects=16, visits=50, seed=1),
     synth.read_shared(num_procs=16, num_objects=16, rounds=20,
                       base=1 << 20, seed=2)],
    chunk=8, seed=3)

if mode == "off_generic":
    trace = list(TRACE)  # a plain list never takes the kernel path
else:
    trace = TRACE
    TRACE.pack().blocks_column(4)  # resolve columns outside timing

if machine_kind == "directory":
    from repro.directory.policy import AGGRESSIVE
    from repro.system.machine import DirectoryMachine
    make = lambda: DirectoryMachine(CFG, AGGRESSIVE)
else:
    from repro.snooping.machine import BusMachine
    from repro.snooping.protocols import AdaptiveSnoopingProtocol
    make = lambda: BusMachine(CFG, AdaptiveSnoopingProtocol())

if mode == "recorder":
    from repro.telemetry import MetricsRegistry, attach_recorder
    from repro.telemetry.sinks import MemorySink

    def prepare():
        machine = make()
        attach_recorder(machine, registry=MetricsRegistry(),
                        sink=MemorySink())
        return machine
else:
    prepare = make

prepare().run(trace)  # warm-up
best = float("inf")
for _ in range(reps):
    machine = prepare()
    t0 = time.perf_counter()
    machine.run(trace)
    best = min(best, time.perf_counter() - t0)
print(f"{len(TRACE)} {best}")
'''


def time_config(src: Path, machine: str, mode: str,
                reps: int) -> tuple[int, float]:
    """Best wall time for one (source tree, machine, mode)."""
    out = subprocess.run(
        [sys.executable, "-c", _TIMER_BODY, str(src), machine, mode,
         str(reps)],
        capture_output=True, text=True, check=True,
    )
    accesses, best = out.stdout.split()
    return int(accesses), float(best)


def measure(src: Path, configs: list[tuple[str, str]], rounds: int,
            reps: int) -> dict:
    """Interleaved min-of-rounds measurement of every configuration."""
    best: dict[tuple[str, str], float] = {c: float("inf") for c in configs}
    accesses = 0
    for _ in range(rounds):
        for config in configs:
            accesses, elapsed = time_config(src, *config, reps=reps)
            best[config] = min(best[config], elapsed)
    result = {"accesses": accesses}
    for (machine, mode), elapsed in best.items():
        key = f"{machine}_{mode}"
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
                        help="src/ of a pre-telemetry tree; measured "
                        "hooks-off on the same machine to separate real "
                        "overhead from load drift in the recorded "
                        "BENCH_throughput.json numbers")
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    configs = [(machine, mode)
               for machine in ("directory", "bus")
               for mode in ("off_packed", "off_generic", "recorder")]

    timings = measure(REPO / "src", configs, args.rounds, args.reps)

    record = {
        "benchmark": "benchmarks/record_observability.py "
                     "(16 procs, 64K caches, 16-byte blocks, "
                     "migratory+read_shared interleave)",
        "method": f"min over {args.rounds} interleaved subprocess rounds "
                  f"of min-of-{args.reps} in-process repetitions",
        "timings": timings,
        "overhead": {
            # Hook forces the generic path, so the honest recorder cost
            # is measured against the generic (not packed) baseline.
            "directory_recorder_vs_generic": round(
                timings["directory_recorder_ms"]
                / timings["directory_off_generic_ms"], 2),
            "bus_recorder_vs_generic": round(
                timings["bus_recorder_ms"]
                / timings["bus_off_generic_ms"], 2),
            "directory_recorder_vs_packed": round(
                timings["directory_recorder_ms"]
                / timings["directory_off_packed_ms"], 2),
            "bus_recorder_vs_packed": round(
                timings["bus_recorder_ms"]
                / timings["bus_off_packed_ms"], 2),
        },
    }

    if args.baseline_src is not None:
        base = measure(args.baseline_src,
                       [("directory", "off_packed"), ("bus", "off_packed")],
                       args.rounds, args.reps)
        record["hooks_off_vs_same_machine_baseline"] = {
            "baseline_directory_off_packed_ms": base["directory_off_packed_ms"],
            "baseline_bus_off_packed_ms": base["bus_off_packed_ms"],
            "directory_packed_ratio": round(
                timings["directory_off_packed_ms"]
                / base["directory_off_packed_ms"], 3),
            "bus_packed_ratio": round(
                timings["bus_off_packed_ms"]
                / base["bus_off_packed_ms"], 3),
        }

    if THROUGHPUT_PATH.exists():
        reference = json.loads(THROUGHPUT_PATH.read_text()).get("after", {})
        if "directory_packed_ms" in reference:
            record["hooks_off_vs_throughput_baseline"] = {
                "reference": str(THROUGHPUT_PATH.name),
                "directory_packed_ratio": round(
                    timings["directory_off_packed_ms"]
                    / reference["directory_packed_ms"], 3),
                "bus_packed_ratio": round(
                    timings["bus_off_packed_ms"]
                    / reference["bus_packed_ms"], 3),
            }

    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
