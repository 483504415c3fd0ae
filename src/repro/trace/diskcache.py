"""Content-keyed on-disk cache for workload traces.

Regenerating an application trace through the workload execution engine
costs orders of magnitude more than replaying it, and both the parallel
experiment harness (:mod:`repro.parallel`) and repeated
``repro-experiments`` invocations rebuild identical traces: every trace
is a pure function of ``(app, num_procs, seed, scale)``.  This module
caches the packed binary form of each trace on disk under a key derived
from those build parameters, so worker processes and later CLI runs load
the columns straight from disk instead of re-running the engine.

Layout and knobs:

* Cache directory: ``$REPRO_TRACE_CACHE`` if set, else
  ``$XDG_CACHE_HOME/repro/traces``, else ``~/.cache/repro/traces``.
* ``REPRO_TRACE_CACHE=off`` (or ``0``) disables the cache entirely.
* Files are named ``<app>-<sha256-prefix>.ptrace`` where the hash covers
  the build parameters plus :data:`CACHE_VERSION`.

When to bump :data:`CACHE_VERSION`: whenever a change to the workload
engine, an application generator, or the packed file format changes a
single byte of some trace or of its ``.ptrace`` file (the trace name
in the header included) — bumping invalidates every stale entry at
once.  ``tests/test_workload_traces.py`` pins the digests, file hashes
and reloaded names of a grid of builds, so such a change fails there
first.  A change that keeps those bytes (a faster engine, say) keeps
the version: old cache files stay valid.

Writes go through a temporary file and an atomic rename, so concurrent
worker processes racing to populate the same key are safe — the losers
simply overwrite the winner's byte-identical file.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.trace.packed import PackedTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.trace.core import Trace

#: Bump when a trace's bytes change (see the module docstring).
CACHE_VERSION = 1

_DISABLE_VALUES = {"off", "0", "no", "false", "disable", "disabled"}


def cache_dir() -> Path | None:
    """The active cache directory, or None when the cache is disabled."""
    configured = os.environ.get("REPRO_TRACE_CACHE")
    if configured is not None:
        if configured.strip().lower() in _DISABLE_VALUES:
            return None
        return Path(configured)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "traces"


def trace_key(app: str, num_procs: int, seed: int, scale: float) -> str:
    """The content key for one trace build specification."""
    spec = f"v{CACHE_VERSION}|{app}|{num_procs}|{seed}|{scale!r}"
    return hashlib.sha256(spec.encode("ascii")).hexdigest()[:20]


def cache_path(app: str, num_procs: int, seed: int, scale: float) -> Path | None:
    """The on-disk path for one trace, or None when the cache is off."""
    directory = cache_dir()
    if directory is None:
        return None
    return directory / f"{app}-{trace_key(app, num_procs, seed, scale)}.ptrace"


def store(path: Path, packed: PackedTrace) -> None:
    """Atomically write ``packed`` to ``path`` (best effort)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    os.close(fd)
    try:
        packed.save(tmp_name)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass


def load_or_build(
    app: str,
    num_procs: int,
    seed: int,
    scale: float,
    builder: Callable[..., "Trace"],
) -> "Trace":
    """Load one application trace from disk, building (and caching) on miss.

    ``builder`` is called as ``builder(app, num_procs=..., seed=...,
    scale=...)`` only when the cache is disabled or has no entry; its
    result is stored packed for the next caller.
    """
    path = cache_path(app, num_procs, seed, scale)
    if path is not None and path.exists():
        try:
            return PackedTrace.load(path).to_trace()
        except Exception:
            # A truncated or stale file: fall through and rebuild it.
            pass
    trace = builder(app, num_procs=num_procs, seed=seed, scale=scale)
    if path is not None:
        store(path, trace.pack())
    return trace


def clear() -> int:
    """Delete every cached trace file; returns the number removed."""
    directory = cache_dir()
    if directory is None or not directory.exists():
        return 0
    removed = 0
    for entry in directory.glob("*.ptrace"):
        try:
            entry.unlink()
            removed += 1
        except OSError:
            pass
    return removed
