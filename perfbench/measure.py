"""Shared measurement helpers: quantiles, memory, digests, run
directories, set-up timing, and the run's context and result.

Everything here is stdlib-only and independent of the simulator, so
``run.py`` can import it before ``src`` is on the path.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

#: Checkout root (the benchmark lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; ignored by git.
OUT = ROOT / ".perfbench"


def percentile(values, pct: float) -> float:
    """The ``pct`` percentile (inclusive interpolation); 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if pct == 50:
        return float(statistics.median(values))
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(pct) - 1])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def digest(payload) -> str:
    """Short content digest of a JSON-safe payload (canonical form)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def self_peak_rss_mb() -> float:
    """This process's resident-set high-water mark, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Another live process's resident-set high-water mark (VmHWM), MB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (Linux ``/proc`` children list)."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as children:
            return [int(p) for p in children.read().split()]
    except OSError:
        return []


def subprocess_env(**extra: str) -> dict[str, str]:
    """Environment for a child that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(extra)
    return env


def import_in_child(modules: tuple[str, ...]) -> None:
    """Start a fresh interpreter that imports ``modules``, and wait.

    This is the process-start share of ``setup_s``: setup is repeated
    several times in one run, and a module import only costs once per
    process, so each repetition pays it in a child interpreter.
    """
    code = "; ".join(f"import {name}" for name in modules)
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=subprocess_env(), stdout=subprocess.DEVNULL)


class RunDir:
    """A private per-run directory under ``.perfbench`` (removed on exit)."""

    def __init__(self, label: str):
        OUT.mkdir(exist_ok=True)
        self.path = OUT / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
        self.path.mkdir(parents=True)

    def sub(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(exist_ok=True)
        return path

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


#: Time of :func:`probe_ms` on a 2-vCPU Xeon host at 2.0 GHz (CPython
#: 3.11) while its vCPU runs at full speed.
PROBE_REF_MS = 1.33


def probe_ms() -> float:
    """Time (ms) of a fixed pure-Python loop that runs no program code."""
    started = perf_counter()
    table, x = {}, 0
    for i in range(8000):
        table[i & 1023] = table.get(i & 4095, 0) + i
        x ^= i
    return 1000.0 * (perf_counter() - started)


def host_factor() -> float:
    """Host speed now, against the reference: a time measured right after
    this call, multiplied by the result, reads as on the reference host.

    Shared hosts switch between speed modes that last seconds (a vCPU
    whose core sibling is busy runs about 1.6x slower), so a 20 s run can
    sit mostly in one mode or the other.  Timing the probe next to each
    op and scaling the op by it (see :class:`Timed`) removes that switch
    from the reported times; the probe runs outside every timed interval.
    """
    return PROBE_REF_MS / probe_ms()


class Timed:
    """Times a ``with`` block.  With ``scale``, :attr:`scaled` is its
    seconds times the mean :func:`host_factor` probed right before and
    right after it (the mean covers a mode switch inside the block);
    :attr:`probe_s` is the time the probes took, outside the block."""

    def __init__(self, scale: bool = True):
        self.scale = scale
        self.probe_s = 0.0

    def _factor(self) -> float:
        started = perf_counter()
        factor = host_factor()
        self.probe_s += perf_counter() - started
        return factor

    def __enter__(self) -> "Timed":
        self.factor = self._factor() if self.scale else 1.0
        self.started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = perf_counter() - self.started
        if self.scale:
            self.factor = (self.factor + self._factor()) / 2
        self.scaled = self.seconds * self.factor


SETUP_REPS = 7


def timed_setup(modules: tuple[str, ...], setup, discard=None,
                reps: int = SETUP_REPS):
    """Run ``setup()`` ``reps`` times; returns ``(setup_s, last_state)``.

    Each repetition is a fresh interpreter start + import of ``modules``
    (the process-start share) plus the workload's own ``setup()``, scaled
    by the host factor (see :class:`Timed`).  Every state but the last is
    handed to ``discard`` untimed.
    """
    samples = []
    state = None
    for rep in range(reps):
        if state is not None and discard is not None:
            discard(state)
        with Timed() as timing:
            import_in_child(modules)
            state = setup()
        samples.append(timing.scaled)
    return median(samples), state


class Context:
    """One benchmark invocation's arguments plus its private directory."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, tiny: bool = False,
                 corrupt_golden: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.corrupt_golden = corrupt_golden
        self.dir = RunDir(workload)


class Result:
    """What a workload reports.

    ``end_to_end`` holds the BENCHMARK.json end-to-end metrics (untraced
    runs), ``named`` the workload's own metrics as ``(name, value,
    unit)`` for the human-readable lines, ``layers`` the per-layer
    metrics (traced runs) and ``inputs`` a digest of the generated
    inputs, so a seed change is visible.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.end_to_end: dict[str, float] = {}
        self.named: list[tuple[str, float, str]] = []
        self.layers: dict[str, float] = {}
        self.inputs = ""

    def op(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
