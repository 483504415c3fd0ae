"""The bus-based snooping multiprocessor model (Sections 2.1 and 4.3).

On a bus, the cost of running the coherence protocol is proportional to
the number of bus transactions rather than messages: any operation is at
most one (split) transaction, because requests broadcast and no individual
acknowledgements are needed.  :class:`BusMachine` counts read-miss,
write-miss, invalidation, and writeback transactions; the two cost models
of Section 4.3 are applied by :mod:`repro.snooping.costmodels`.

Clean replacements are silent (a snooping protocol keeps no state for
uncached blocks — this is exactly the "power" difference from the
directory protocols that Section 4.3 highlights).
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

from repro.cache.core import Cache, CacheLine, make_cache
from repro.common.config import MachineConfig
from repro.conformance.invariants import check_snooping_block
from repro.common.errors import ProtocolError
from repro.common.stats import BusStats, CacheStats
from repro.common.types import Access, Op
from repro.snooping.protocols import SnoopingProtocol
from repro.snooping.states import SnoopState as St


class BusMachine:
    """A bus-based multiprocessor running one snooping protocol."""

    __slots__ = (
        "config", "protocol", "caches", "bus_stats", "cache_stats",
        "step_hook", "_check", "_block_shift", "_latest", "_version_counter",
    )

    #: Kernel-fallback reason a subclass replay records (the table-driven
    #: kernels encode exactly this class's transitions).
    kernel_fallback_reason = "machine-subclass"

    def __init__(
        self,
        config: MachineConfig,
        protocol: SnoopingProtocol,
        check: bool = False,
        seed: int = 0,
        step_hook: Callable[["BusMachine", int, int], None] | None = None,
    ):
        self.config = config
        self.protocol = protocol
        rng = random.Random(seed)
        self.caches: list[Cache] = [
            make_cache(config.cache, random.Random(rng.random()))
            for _ in range(config.num_procs)
        ]
        self.bus_stats = BusStats()
        self.cache_stats = CacheStats()
        #: Observer called as ``step_hook(machine, proc, block)`` after
        #: every bus-visible step (the same points the built-in checker
        #: audits).  Installing one keeps replays on the reference path.
        self.step_hook = step_hook
        self._check = check
        self._block_shift = config.cache.block_size.bit_length() - 1
        self._latest: dict[int, int] = {}
        self._version_counter = 0

    def run(self, trace: Iterable[Access]) -> BusStats:
        """Process every access in ``trace``; returns bus statistics.

        Like :meth:`repro.system.machine.DirectoryMachine.run`: a
        packable trace (anything exposing ``pack()``) replays on the
        table-driven kernel when :func:`repro.kernels.snooping.envelope`
        admits it — identical statistics and final state — and
        otherwise through :meth:`_replay_reference`, each fallback
        counted by its reason; other iterables replay access by access.
        The checker and a step hook keep the replay on the reference
        path.  Install the hook *before* calling ``run``: one that
        appears mid-replay on the kernel path (e.g. from a protocol
        handler) would have missed the steps the kernel already summed,
        so the replay ends with a :class:`ProtocolError` instead of
        returning silently partial observations.
        """
        pack = getattr(trace, "pack", None)
        if pack is None:
            access = self.access
            for acc in trace:
                access(acc.proc, acc.op is Op.WRITE, acc.addr)
            return self.bus_stats
        from repro.kernels.snooping import try_replay

        packed = pack()
        if try_replay(self, packed) is None:
            self._replay_reference(packed)
        return self.bus_stats

    def _replay_reference(self, packed) -> None:
        """The reference path: every access of ``packed`` through
        :meth:`_access_block`, over the memoised block column."""
        access = self._access_block
        for proc, is_write, block in zip(
            packed.procs, packed.ops, packed.blocks_column(self._block_shift)
        ):
            access(proc, is_write, block)

    def access(self, proc: int, is_write: bool, addr: int) -> None:
        """Process one reference from ``proc`` to byte address ``addr``."""
        self._access_block(proc, is_write, addr >> self._block_shift)

    def _access_block(self, proc: int, is_write: bool, block: int) -> None:
        """Process one reference given its block number directly."""
        cache = self.caches[proc]
        line = cache.lookup(block)
        if not is_write:
            if line is not None:
                cache.touch(block)
                self.cache_stats.read_hits += 1
                self.protocol.read_hit(line)
                if self._check:
                    self._check_read(block, line)
                return
            self.cache_stats.read_misses += 1
            self.bus_stats.record("read_miss")
            state, dirty = self.protocol.read_miss_fill(self.caches, proc, block)
            self._fill(proc, block, state, dirty)
            if self._check:
                self._check_block(block)
            if self.step_hook is not None:
                self.step_hook(self, proc, block)
            return
        if line is not None:
            self.cache_stats.write_hits += 1
            cache.touch(block)
            if self.protocol.write_hit_needs_bus(line):
                kind = self.protocol.write_hit_bus(self.caches, proc, block, line)
                self.bus_stats.record(kind)
                self.cache_stats.upgrades += 1
            else:
                self.protocol.write_hit_silent(line)
            self._bump_version(block, line)
        else:
            self.cache_stats.write_misses += 1
            self.bus_stats.record("write_miss")
            state, dirty = self.protocol.write_miss_fill(self.caches, proc, block)
            self._fill(proc, block, state, dirty)
            self._bump_version(block, self.caches[proc].lookup(block))
        if self.protocol.updates_remote_copies:
            # Update broadcasts leave every surviving copy current.
            self._sync_versions(block)
        if self._check:
            self._check_block(block)
        if self.step_hook is not None:
            self.step_hook(self, proc, block)

    def _fill(self, proc: int, block: int, state: St, dirty: bool) -> None:
        victim = self.caches[proc].insert(block, state, dirty)
        if self._check:
            self.caches[proc].lookup(block).version = self._latest.get(block, 0)
        if victim is not None:
            if victim.dirty:
                self.bus_stats.record("writeback")
                self.cache_stats.evictions_dirty += 1
            else:
                # Clean replacement is silent on a bus.
                self.cache_stats.evictions_clean += 1

    # ------------------------------------------------------------------
    # Coherence checker (tests only)
    # ------------------------------------------------------------------

    def _bump_version(self, block: int, line: CacheLine) -> None:
        if not self._check:
            return
        self._version_counter += 1
        self._latest[block] = self._version_counter
        line.version = self._version_counter

    def _sync_versions(self, block: int) -> None:
        if not self._check:
            return
        latest = self._latest.get(block, 0)
        for cache in self.caches:
            line = cache.lookup(block)
            if line is not None:
                line.version = latest

    def _check_read(self, block: int, line: CacheLine) -> None:
        latest = self._latest.get(block, 0)
        if line.version != latest:
            raise ProtocolError(
                f"stale read of block {block}: copy version {line.version}, "
                f"latest write {latest}"
            )

    def _check_block(self, block: int) -> None:
        check_snooping_block(self, block)
