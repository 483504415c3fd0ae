"""Self-test of the benchmark itself.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py [--workload NAME ...]

Runs every workload at its tiny size and asserts that

* every end-to-end (``--trace 0``) and per-layer (``--trace 1``) metric
  named in BENCHMARK.json is emitted, with its unit, and the run is
  correct;
* a deliberately corrupted golden digest is reported as a failure;
* a different ``--seed`` changes the generated inputs but not the metric
  names;

and that the benchmark exits non-zero, printing no result, in a directory
holding only BENCHMARK.json and the benchmark's own files.  Exits 1 on
the first failed check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

from measure import OUT, ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, *BENCHMARK["command"][1:]]


def bench(workload: str, seed: int, *flags: str, cwd=ROOT):
    """One tiny run; returns ``(returncode, inputs digest, result)``."""
    command = [*RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--tiny", *flags]
    if "--trace" not in flags:
        command += ["--trace", "0"]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    inputs = next((line.split()[-1] for line in lines
                   if line.startswith("workload ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode and result is not None:
        raise AssertionError(f"{workload}: non-zero exit with a result")
    if proc.returncode == 0 and result is None:
        raise AssertionError(f"{workload}: no result line\n{proc.stderr}")
    return proc.returncode, inputs, result


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def check_workload(workload: str) -> None:
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

    def units(result):
        return {name: entry["unit"] for name, entry in result["metrics"].items()}

    _, inputs_a, a = bench(workload, 1)
    expect(a["correct"] and a["failed"] == 0 and a["attempted"] >= 1,
           f"{workload}: seed 1 correct")
    expect(units(a) == end_to_end,
           f"{workload}: every end-to-end metric emitted with its unit")
    _, inputs_b, b = bench(workload, 2)
    expect(inputs_a != inputs_b, f"{workload}: seed 2 changes the inputs")
    expect(units(b) == units(a), f"{workload}: seed 2 keeps the metric names")
    _, _, bad = bench(workload, 1, "--corrupt-golden")
    expect(not bad["correct"] and bad["failed"] >= 1,
           f"{workload}: a corrupted golden digest fails the run")
    _, _, traced = bench(workload, 1, "--trace", "1")
    expect(traced["correct"] and units(traced) == per_layer,
           f"{workload}: every per-layer metric emitted with its unit")


def check_bare_directory() -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, _, result = bench("cold-replay", 1, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None,
           "bare directory: non-zero exit and no result")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    args = parser.parse_args(argv)
    try:
        check_bare_directory()
        for workload in args.workload or [w["name"] for w in BENCHMARK["workloads"]]:
            check_workload(workload)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
