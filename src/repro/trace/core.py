"""Trace containers and text-format I/O.

A trace is an ordered sequence of :class:`repro.common.types.Access`
records for *ordinary shared data* — following the paper, synchronization
variables, private data and instructions are excluded by the producers.

A :class:`Trace` keeps the accesses in one (or both) of two forms: the
boxed ``Access`` list, and the packed columnar form of
:class:`repro.trace.packed.PackedTrace`.  Conversions happen lazily and
are cached — a trace loaded from the binary disk cache never materialises
``Access`` objects unless some consumer actually iterates them, and a
trace built access-by-access packs itself only when a machine replays it.
Mutation (``append``/``extend``) invalidates the packed form.

The text format is one record per line: ``<proc> <R|W> <hex addr>``, with
``#``-prefixed comment lines; it round-trips exactly.  Paths ending in
``.gz`` are transparently gzip-compressed (multi-million-access traces
compress roughly 10x).  For the fast binary format see
:meth:`repro.trace.packed.PackedTrace.save`.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterable, Iterator

from repro.common.errors import TraceError
from repro.common.types import Access, Op
from repro.trace.packed import PackedTrace


class Trace:
    """An in-memory access trace with simple summary helpers."""

    __slots__ = ("_name", "_accesses", "_packed", "_owns_packed",
                 "__weakref__")

    def __init__(self, accesses: Iterable[Access] = (), name: str = "trace"):
        self._name = name
        self._accesses: list[Access] | None = list(accesses)
        self._packed: PackedTrace | None = None
        self._owns_packed = False

    @classmethod
    def from_packed(cls, packed: PackedTrace, name: str | None = None) -> "Trace":
        """Wrap a packed trace without materialising ``Access`` objects."""
        trace = cls.__new__(cls)
        trace._name = name or packed.name
        trace._accesses = None
        trace._packed = packed
        trace._owns_packed = False
        return trace

    @classmethod
    def adopt(cls, packed: PackedTrace) -> "Trace":
        """Wrap ``packed`` as the trace's own packed form.

        The trace owns ``packed`` as it owns the form :meth:`pack`
        builds: unlike with :meth:`from_packed`, renaming the trace
        renames ``packed`` too, so a producer that fills the columns
        and names the trace afterwards saves and caches them under
        that name.
        """
        trace = cls.from_packed(packed)
        trace._owns_packed = True
        return trace

    @property
    def name(self) -> str:
        """The trace label; its own packed form carries the same name."""
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value
        if self._owns_packed:
            self._packed.name = value

    # ------------------------------------------------------------------
    # Representation management
    # ------------------------------------------------------------------

    def _materialize(self) -> list[Access]:
        """The boxed ``Access`` list, building it from columns if needed."""
        accesses = self._accesses
        if accesses is None:
            accesses = self._packed.to_accesses()
            self._accesses = accesses
        return accesses

    def pack(self) -> PackedTrace:
        """The packed columnar form (built once, cached).

        The result shares the trace's identity: replaying it on a machine
        is bit-identical to replaying the trace itself, only faster.
        """
        packed = self._packed
        if packed is None:
            packed = PackedTrace.from_accesses(self._accesses, name=self._name)
            self._packed = packed
            self._owns_packed = True
        return packed

    def iter_packed(self) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(proc, is_write, addr)`` int triples (hot-loop form)."""
        return self.pack().iter_packed()

    def append(self, access: Access) -> None:
        """Add one access to the end of the trace."""
        self._materialize().append(access)
        self._packed = None
        self._owns_packed = False

    def extend(self, accesses: Iterable[Access]) -> None:
        """Add many accesses to the end of the trace."""
        self._materialize().extend(accesses)
        self._packed = None
        self._owns_packed = False

    def __iter__(self) -> Iterator[Access]:
        return iter(self._materialize())

    def __len__(self) -> int:
        if self._accesses is not None:
            return self._accesses.__len__()
        return self._packed.__len__()

    def __getitem__(self, index):
        return self._materialize()[index]

    @property
    def num_procs(self) -> int:
        """One more than the largest processor id appearing in the trace."""
        if self._accesses is None:
            return self._packed.num_procs
        return max((a.proc for a in self._accesses), default=-1) + 1

    @property
    def write_fraction(self) -> float:
        """Fraction of accesses that are writes."""
        if not len(self):
            return 0.0
        if self._accesses is None:
            writes = sum(self._packed.ops)
        else:
            writes = sum(1 for a in self._accesses if a.op is Op.WRITE)
        return writes / len(self)

    def footprint_bytes(self, granularity: int = 4) -> int:
        """Bytes touched, rounded to ``granularity``-byte units."""
        if self._accesses is None:
            units = {a // granularity for a in self._packed.addrs}
        else:
            units = {a.addr // granularity for a in self._accesses}
        return len(units) * granularity

    def blocks(self, block_size: int) -> set[int]:
        """The set of block numbers the trace touches."""
        if self._accesses is None:
            return {a // block_size for a in self._packed.addrs}
        return {a.addr // block_size for a in self._accesses}

    # ------------------------------------------------------------------
    # Text format
    # ------------------------------------------------------------------

    @staticmethod
    def _open(path: str | Path, mode: str):
        if str(path).endswith(".gz"):
            return gzip.open(path, mode + "t", encoding="ascii")
        return open(path, mode, encoding="ascii")

    def save(self, path: str | Path) -> None:
        """Write the trace in the one-record-per-line text format.

        Paths ending in ``.gz`` are gzip-compressed.
        """
        with self._open(path, "w") as fh:
            fh.write(f"# trace {self.name}: {len(self)} accesses\n")
            for proc, is_write, addr in self.iter_packed():
                fh.write(f"{proc} {'W' if is_write else 'R'} {addr:x}\n")

    @classmethod
    def load(cls, path: str | Path, name: str | None = None) -> "Trace":
        """Read a trace written by :meth:`save` (plain or ``.gz``)."""
        accesses = []
        with cls._open(path, "r") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise TraceError(f"{path}:{lineno}: malformed record {line!r}")
                try:
                    proc = int(parts[0])
                    op = Op(parts[1])
                    addr = int(parts[2], 16)
                except ValueError as exc:
                    raise TraceError(f"{path}:{lineno}: {exc}") from exc
                accesses.append(Access(proc, op, addr))
        return cls(accesses, name=name or Path(path).stem)
