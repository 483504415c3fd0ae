"""A miniature execution-driven workload engine (Tango's role).

Simulated parallel programs are written as Python generators that yield
*effects*: shared-memory reads/writes, lock acquire/release, and barriers.
The engine interleaves the per-processor threads deterministically (seeded
random quanta), implements the synchronization, and records the
shared-data references into the packed columns of a
:class:`repro.trace.Trace`.

Following the paper's methodology, synchronization operations themselves
are *not* recorded in the trace ("the traces ... exclude accesses to
synchronization variables, private data, and instructions"); only ordinary
shared-data accesses appear.

Example::

    engine = Engine(num_procs=4, seed=1)
    heap = Heap()
    counter = heap.alloc(4)
    lock = "counter-lock"

    def worker(proc):
        for _ in range(10):
            yield Acquire(lock)
            yield ReadEffect(counter)
            yield WriteEffect(counter)
            yield Release(lock)

    for proc in range(4):
        engine.spawn(proc, worker(proc))
    trace = engine.run()
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Generator, Iterable

from repro.common.errors import DeadlockError, WorkloadError
from repro.trace.core import Trace
from repro.trace.packed import PackedTrace


@dataclass(frozen=True, slots=True)
class ReadEffect:
    """Read the shared word at ``addr``."""

    addr: int


@dataclass(frozen=True, slots=True)
class WriteEffect:
    """Write the shared word at ``addr``."""

    addr: int


@dataclass(frozen=True, slots=True)
class Acquire:
    """Acquire the named mutual-exclusion lock (blocking)."""

    lock: str


@dataclass(frozen=True, slots=True)
class Release:
    """Release the named lock (must be held by this thread)."""

    lock: str


@dataclass(frozen=True, slots=True)
class BarrierWait:
    """Block until all live threads have reached barrier ``name``."""

    name: str


@dataclass(frozen=True, slots=True)
class LocalCompute:
    """Private computation between shared references.

    Consumes ``units`` scheduling steps without emitting trace records —
    the simulated equivalent of instructions and private-data work.
    Inserting compute between a critical section's accesses stretches it
    in time, increasing contention realism.
    """

    units: int = 1


Effect = (
    ReadEffect | WriteEffect | Acquire | Release | BarrierWait | LocalCompute
)
Program = Generator[Effect, None, None]

_EFFECT_TYPES = frozenset(
    (ReadEffect, WriteEffect, Acquire, Release, BarrierWait, LocalCompute)
)


def _effect_type(effect) -> type:
    """The effect class ``effect`` dispatches as (subclasses included)."""
    for kind in (ReadEffect, WriteEffect, Acquire, Release, BarrierWait,
                 LocalCompute):
        if isinstance(effect, kind):
            return kind
    raise WorkloadError(f"unknown effect: {effect!r}")


class Heap:
    """A bump allocator for laying out simulated shared data."""

    def __init__(self, base: int = 0):
        self._next = base

    def alloc(self, nbytes: int, align: int = 4) -> int:
        """Reserve ``nbytes`` and return the base address."""
        if nbytes <= 0:
            raise WorkloadError("allocation size must be positive")
        if align & (align - 1):
            raise WorkloadError("alignment must be a power of two")
        self._next = (self._next + align - 1) & ~(align - 1)
        addr = self._next
        self._next += nbytes
        return addr

    def alloc_words(self, nwords: int, align: int = 4) -> int:
        """Reserve ``nwords`` four-byte words."""
        return self.alloc(nwords * 4, align)

    @property
    def used(self) -> int:
        """Bytes allocated so far."""
        return self._next


class _Thread:
    __slots__ = ("proc", "gen", "blocked_on", "done", "held")

    def __init__(self, proc: int, gen: Program):
        self.proc = proc
        self.gen = gen
        self.blocked_on: Effect | None = None
        self.done = False
        self.held: set[str] = set()


class Engine:
    """Deterministic round-robin interleaver for simulated threads.

    The scheduler keeps its ``live`` and ``runnable`` thread lists
    between steps and rebuilds them (in spawn order, exactly as a
    per-step rebuild would) only after a step that can change them: a
    thread blocked, unblocked or finished, or a lock some thread waits
    on changed hands.  Accesses go straight into packed columns, so the
    returned :class:`~repro.trace.core.Trace` holds no ``Access``
    objects until a consumer iterates it.
    """

    def __init__(self, num_procs: int, seed: int = 0, max_quantum: int = 8):
        if num_procs <= 0:
            raise WorkloadError("num_procs must be positive")
        if max_quantum <= 0:
            raise WorkloadError("max_quantum must be positive")
        self.num_procs = num_procs
        self._rng = random.Random(seed)
        self._max_quantum = max_quantum
        self._threads: list[_Thread] = []
        self._locks: dict[str, _Thread | None] = {}
        # lock -> number of threads blocked acquiring it.
        self._waiters: dict[str, int] = {}
        # The (procs, ops, addrs) columns the current run() fills.
        self._columns: tuple[array, array, array] | None = None

    def spawn(self, proc: int, gen: Program) -> None:
        """Register a thread on processor ``proc``."""
        if not 0 <= proc < self.num_procs:
            raise WorkloadError(f"processor id {proc} out of range")
        self._threads.append(_Thread(proc, gen))

    def run(self) -> Trace:
        """Interleave all threads to completion; returns the trace."""
        self._columns = (array("q"), array("b"), array("q"))
        choice = self._rng.choice
        step = self._step
        threads = self._threads
        runnable: list[_Thread] = []
        changed = True
        while True:
            if changed:
                live = [t for t in threads if not t.done]
                if not live:
                    break
                runnable = [t for t in live if self._can_run(t)]
                if not runnable:
                    self._check_barriers(live)
                    runnable = [t for t in live if self._can_run(t)]
                    if not runnable:
                        raise DeadlockError(
                            f"{len(live)} threads blocked: "
                            f"{[str(t.blocked_on) for t in live[:4]]}"
                        )
            changed = step(choice(runnable))
        return Trace.adopt(PackedTrace(*self._columns, name="engine"))

    def _can_run(self, thread: _Thread) -> bool:
        effect = thread.blocked_on
        if effect is None:
            return True
        if isinstance(effect, Acquire):
            return self._locks.get(effect.lock) is None
        # Barriers release all waiters at once in _check_barriers.
        return False

    def _check_barriers(self, live: list[_Thread]) -> None:
        """Release a barrier once every live thread is waiting on it.

        Threads that already finished are not required to arrive, matching
        SPMD programs where barriers synchronise the threads still running.
        """
        names = {
            t.blocked_on.name
            for t in live
            if isinstance(t.blocked_on, BarrierWait)
        }
        for name in names:
            blocked_here = [
                t
                for t in live
                if isinstance(t.blocked_on, BarrierWait)
                and t.blocked_on.name == name
            ]
            if len(blocked_here) == len(live):
                for t in blocked_here:
                    t.blocked_on = None

    def _step(self, thread: _Thread) -> bool:
        """Run one quantum of ``thread``.

        Returns True when the step may have changed which threads are
        live or runnable, so the scheduler must rebuild its lists.
        """
        locks = self._locks
        waiters = self._waiters
        changed = False
        # Complete a pending acquire, if any (a runnable thread can only
        # be blocked on an Acquire whose lock is free).
        if thread.blocked_on is not None:
            lock = thread.blocked_on.lock
            locks[lock] = thread
            thread.held.add(lock)
            thread.blocked_on = None
            waiters[lock] -= 1
            changed = True
        proc = thread.proc
        gen = thread.gen
        procs, ops, addrs = self._columns
        procs_append = procs.append
        ops_append = ops.append
        addrs_append = addrs.append
        quantum = self._rng.randint(1, self._max_quantum)
        for _ in range(quantum):
            try:
                effect = next(gen)
            except StopIteration:
                thread.done = True
                if thread.held:
                    raise WorkloadError(
                        f"thread on P{proc} exited holding "
                        f"locks {sorted(thread.held)}"
                    ) from None
                return True
            kind = type(effect)
            if kind not in _EFFECT_TYPES:
                kind = _effect_type(effect)
            if kind is ReadEffect or kind is WriteEffect:
                procs_append(proc)
                ops_append(kind is WriteEffect)
                addrs_append(effect.addr)
            elif kind is Acquire:
                lock = effect.lock
                holder = locks.get(lock)
                if holder is thread:
                    raise WorkloadError(
                        f"P{proc} re-acquired lock {lock!r}"
                    )
                if holder is None:
                    locks[lock] = thread
                    thread.held.add(lock)
                    if waiters.get(lock):
                        changed = True
                else:
                    thread.blocked_on = effect
                    waiters[lock] = waiters.get(lock, 0) + 1
                    return True
            elif kind is Release:
                lock = effect.lock
                if locks.get(lock) is not thread:
                    raise WorkloadError(
                        f"P{proc} released lock {lock!r} "
                        "it does not hold"
                    )
                locks[lock] = None
                thread.held.discard(lock)
                if waiters.get(lock):
                    changed = True
            elif kind is BarrierWait:
                thread.blocked_on = effect
                return True
            # LocalCompute consumes the rest of the quantum proportionally
            # to the declared work; nothing is traced.
            elif effect.units >= quantum:
                return changed
        return changed


def run_program(
    num_procs: int,
    make_worker,
    seed: int = 0,
    max_quantum: int = 8,
    name: str = "program",
) -> Trace:
    """Convenience wrapper: spawn ``make_worker(proc)`` per processor.

    Args:
        num_procs: number of processors/threads.
        make_worker: callable returning the generator for each proc.
        seed: engine interleaving seed.
        max_quantum: maximum effects per scheduling quantum.
        name: name recorded on the returned trace.
    """
    engine = Engine(num_procs, seed=seed, max_quantum=max_quantum)
    for proc in range(num_procs):
        engine.spawn(proc, make_worker(proc))
    trace = engine.run()
    trace.name = name
    return trace
