"""The symmetric ``step_hook`` contract on both machines.

A hook installed before ``run`` keeps both machines on the reference
path (every access through ``_access_block``) and observes every
protocol-visible step while leaving every statistic bit-identical to
the kernel replay.  The reference path calls a hook at every step, so
one that appears *mid-replay* there observes every later step, as on
the per-access path; the kernel path's rejection of a mid-replay hook
is covered by ``tests/test_kernel_hook_contract.py``.
"""

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.common.errors import ProtocolError
from repro.common.types import Access, Op
from repro.directory.policy import BASIC
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import MesiProtocol
from repro.system.machine import DirectoryMachine
from repro.trace.core import Trace

NUM_PROCS = 4


def _trace() -> Trace:
    accesses = []
    for round_no in range(8):
        for proc in range(NUM_PROCS):
            accesses.append(Access(proc, Op.READ, 16 * proc))
            accesses.append(Access(proc, Op.WRITE, 16 * proc))
            accesses.append(Access(proc, Op.READ, 0))
            if round_no % 2:
                accesses.append(Access(proc, Op.WRITE, 0))
    return Trace(accesses, name="hook-contract")


def _config() -> MachineConfig:
    return MachineConfig(
        num_procs=NUM_PROCS,
        cache=CacheConfig(size_bytes=None, block_size=16),
    )


class TestHookForcesGenericPath:
    """With a hook, both machines take the reference path, fire the
    hook on every protocol-visible step, and keep identical stats."""

    def test_directory(self):
        packed = DirectoryMachine(_config(), BASIC)
        packed.run(_trace())
        seen = []
        hooked = DirectoryMachine(
            _config(), BASIC,
            step_hook=lambda m, p, b: seen.append((p, b)),
        )
        hooked.run(_trace())
        stats = hooked.cache_stats
        assert len(seen) == (stats.read_misses + stats.write_misses
                             + stats.upgrades)
        assert hooked.cache_stats == packed.cache_stats
        assert hooked.stats.short == packed.stats.short
        assert hooked.stats.data == packed.stats.data

    def test_bus(self):
        packed = BusMachine(_config(), MesiProtocol())
        packed.run(_trace())
        seen = []
        hooked = BusMachine(
            _config(), MesiProtocol(),
            step_hook=lambda m, p, b: seen.append((p, b)),
        )
        hooked.run(_trace())
        stats = hooked.cache_stats
        # The bus hook additionally fires on bus-silent write hits.
        assert len(seen) >= (stats.read_misses + stats.write_misses
                             + stats.upgrades)
        assert hooked.cache_stats == packed.cache_stats
        assert hooked.bus_stats.by_kind == packed.bus_stats.by_kind


class _HookInstallingPlacement:
    """Placement that sneaks a hook onto the machine during a replay."""

    def __init__(self, hook=None):
        self.machine = None
        self.hook = hook or (lambda m, p, b: None)

    def home(self, page: int, accessor: int) -> int:
        if self.machine.step_hook is None:
            self.machine.step_hook = self.hook
        return 0


class _HookInstallingProtocol(MesiProtocol):
    """Snooping protocol that installs a hook from a miss handler."""

    def __init__(self):
        self.machine = None

    def read_miss_fill(self, caches, proc, block):
        if self.machine.step_hook is None:
            self.machine.step_hook = lambda m, p, b: None
        return super().read_miss_fill(caches, proc, block)


class TestMidReplayInstallOnReferencePath:
    """Components outside the kernel envelope (an ad-hoc placement or
    protocol) keep the replay on the reference path, which hands a
    mid-replay hook every later step."""

    def test_directory_hook_observes_later_steps(self):
        seen = []
        placement = _HookInstallingPlacement(
            lambda m, p, b: seen.append((p, b)))
        machine = DirectoryMachine(_config(), BASIC, placement=placement)
        placement.machine = machine
        machine.run(_trace())
        stats = machine.cache_stats
        # The hook arrives inside the first miss, after that step's
        # placement lookup, and sees that step and every later one.
        assert seen and len(seen) == (stats.read_misses
                                      + stats.write_misses
                                      + stats.upgrades)

    def test_bus_hook_observes_later_steps(self):
        protocol = _HookInstallingProtocol()
        machine = BusMachine(_config(), protocol)
        protocol.machine = machine
        machine.run(_trace())
        assert machine.step_hook is not None
        reference = BusMachine(_config(), MesiProtocol())
        reference.run(_trace())
        assert machine.cache_stats == reference.cache_stats
        assert machine.bus_stats.by_kind == reference.bus_stats.by_kind


class TestMidReplayInstallRejected:
    def test_generic_path_tolerates_mid_replay_install(self):
        # Iterating plain accesses never consults pack(), so the kernel
        # never runs and there is no summed replay for the hook to miss.
        placement = _HookInstallingPlacement()
        machine = DirectoryMachine(_config(), BASIC, placement=placement)
        placement.machine = machine
        machine.run(iter(_trace()))
        assert machine.step_hook is not None
