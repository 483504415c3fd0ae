"""Streaming interpreter over the compiled replay tables.

Batch replay hands the kernels the whole trace, which caps trace size
at available RAM — a billion-access trace is tens of gigabytes of
columns before the walk even starts.  The streaming backend feeds the
*same* replay (:class:`repro.kernels.directory.Replay` /
:class:`repro.kernels.snooping.Replay`) one
:class:`~repro.trace.packed.PackedTrace` segment at a time
(:meth:`PackedTrace.segments`, a synthesis generator, or chunks attached
from a shared-memory arena via :func:`repro.trace.shm.attach_packed`),
so the replay keeps only

* one final packed state per *block seen so far* — the block's current
  machine state, exactly what the machine itself must hold — and
* O(chunk) transient state per fed segment (that segment's per-block
  symbol runs and delta lists).

Statistics merge deterministically: every per-segment walk yields
integer delta totals, and integer addition is order-independent, so a
replay fed in 1-access segments produces byte-identical stats and final
machine state to batch replay and to the reference path.

A stream checks the batch envelope plus one gate, ``finite-cache``:
replacement needs the set's *global* conflict structure, which a
segment-local view cannot establish (a set that never conflicts within
any one segment may still conflict across them).  A refused stream —
at construction or at any :meth:`feed` — is counted under its own
engine label and raises :class:`~repro.kernels.registry.Declined`
(a :class:`~repro.kernels.tables.KernelUnsupported`) with the machine
untouched; :func:`replay_stream` then replays through ``machine.run``.
"""

from __future__ import annotations

from repro.kernels import directory, registry, snooping


class DirectoryStreamReplay(directory.Replay):
    """Incremental table-driven replay for a ``DirectoryMachine``.

    Usage::

        replay = DirectoryStreamReplay(machine)
        for segment in packed.segments(1 << 20):
            replay.feed(segment)
        stats = replay.finish()
    """

    ENGINE = "directory-stream"
    STREAM = True


class BusStreamReplay(snooping.Replay):
    """Incremental table-driven replay for a ``BusMachine``."""

    ENGINE = "bus-stream"
    STREAM = True


def stream_replay_for(machine):
    """The stream replay matching ``machine``'s engine.

    Dispatches on duck type (directory machines have a placement, bus
    machines do not), so callers need not import the machine classes.
    """
    if hasattr(machine, "placement"):
        return DirectoryStreamReplay(machine)
    return BusStreamReplay(machine)


def replay_stream(machine, packed, chunk: int = 1 << 20):
    """Replay ``packed`` on ``machine`` in O(chunk) resident memory.

    Feeds :meth:`PackedTrace.segments` chunks through the matching
    stream replay; when the stream is refused (the fallback is counted
    under the stream engine's label) the replay runs through
    ``machine.run`` instead, which may still engage batch replay —
    behavior is identical either way.
    """
    try:
        replay = stream_replay_for(machine)
        for segment in packed.segments(chunk):
            replay.feed(segment)
    except registry.Declined:
        return machine.run(packed)
    return replay.finish()
