"""Repository benchmark: host time of the coherence simulator and its service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``cold-replay``, ``table-sweep``, ``stream-wide`` and
``serve-zipf`` (see README.md in this directory; BENCHMARK.json lists
the first three, serve-zipf is run by hand); ``--workload all`` runs
each in turn.  Every simulated result is checked against golden
digests.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.
Human-readable ``metric`` lines come first; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import subprocess
import sys

from measure import SRC, Context

#: (name, unit) of the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("throughput", "1/s"),
)

WORKLOADS = ("cold-replay", "table-sweep", "stream-wide", "serve-zipf")


def _run_all(args) -> int:
    """Run every workload in a fresh process (so no cache or kernel state
    crosses workloads); exit status is the worst child's."""
    worst = 0
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        command += ["--tiny"] * args.tiny
        command += ["--corrupt-golden"] * args.corrupt_golden
        worst = max(worst, subprocess.call(command))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"),
                        help="one workload, or 'all' to run each in turn "
                        "in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs (self-test only)")
    parser.add_argument("--corrupt-golden", action="store_true",
                        help="flip every golden digest (self-test only)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER, SERVE_LAYERS

    # A terminated run still unwinds, so every process it started is
    # stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.tiny, args.corrupt_golden)
    try:
        workload = importlib.import_module(args.workload.replace("-", "_"))
        result = workload.run(ctx)
    finally:
        ctx.dir.remove()

    if not ctx.trace:
        units = dict(END_TO_END)
    elif args.workload == "serve-zipf":
        units = dict((*PER_LAYER, *SERVE_LAYERS))
    else:
        units = dict(PER_LAYER)
    values = result.end_to_end if not ctx.trace else result.layers
    print(f"workload {args.workload} seed {args.seed} "
          f"inputs {result.inputs}")
    fail_frac = result.failed / result.attempted if result.attempted else 1.0
    named = [*result.named, ("fail_frac", fail_frac, "ratio")]
    for name, value, unit in named:
        print(f"metric {name} {value:.6g} {unit}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{'layer' if ctx.trace else 'end_to_end'} {name} "
              f"{entry['value']:.6g} {entry['unit']}")
    correct = result.attempted > 0 and result.failed == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(result.attempted, 1),
                      "failed": result.failed if result.attempted else 1,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
