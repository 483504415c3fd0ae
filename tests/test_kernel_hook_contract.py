"""The ``step_hook`` contract on the table-driven kernel path.

Mirrors ``tests/test_step_hook_contract.py`` for the kernel replays of
:mod:`repro.kernels`: a hook installed *before* ``run`` keeps both
machines off the kernel entirely (the reference path calls it at every
step), while a hook that sneaks in mid-replay — after the kernel has
already summed the whole trace — must fail loudly on both machines,
with a "mid-replay" error naming the kernel path.
"""

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.common.errors import ProtocolError
from repro.common.types import Access, Op
from repro.directory.policy import BASIC
from repro.kernels import registry
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import MesiProtocol
from repro.system.machine import DirectoryMachine
from repro.system.placement import RoundRobinPlacement
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
    return Trace(accesses, name="kernel-hook-contract")


def _config() -> MachineConfig:
    return MachineConfig(
        num_procs=NUM_PROCS,
        cache=CacheConfig(size_bytes=None, block_size=16),
    )


class _SneakyPacked:
    """Packed-trace proxy that installs a hook when the kernel splits
    the trace into per-block sequences (its first trace-shaped read)."""

    def __init__(self, inner, machine):
        self._inner = inner
        self._machine = machine

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def block_sequences(self, block_shift):
        if self._machine.step_hook is None:
            self._machine.step_hook = lambda m, p, b: None
        return self._inner.block_sequences(block_shift)


class _SneakyTrace(Trace):
    """Trace whose pack() hands the kernel the hook-installing proxy."""

    machine = None

    def pack(self):
        return _SneakyPacked(super().pack(), self.machine)


class TestMidReplayInstallRejected:
    """Both kernels detect a hook that appeared during the replay and
    raise instead of returning stats the hook never observed."""

    def test_directory_kernel_raises(self, monkeypatch):
        machine = DirectoryMachine(_config(), BASIC)
        original = RoundRobinPlacement.home

        def sneaky_home(self, page, accessor):
            if machine.step_hook is None:
                machine.step_hook = lambda m, p, b: None
            return original(self, page, accessor)

        # The kernel requires the exactly-shipped placement type, so the
        # hook is smuggled in through the class, not a subclass.
        monkeypatch.setattr(RoundRobinPlacement, "home", sneaky_home)
        with pytest.raises(ProtocolError,
                           match="mid-replay on the table-driven kernel"):
            machine.run(_trace())

    def test_bus_kernel_raises(self):
        machine = BusMachine(_config(), MesiProtocol())
        trace = _SneakyTrace(list(_trace()), name="kernel-hook-contract")
        trace.machine = machine
        with pytest.raises(ProtocolError,
                           match="mid-replay on the table-driven kernel"):
            machine.run(trace)


class TestPreInstalledHookBypassesKernel:
    """A hook given to the constructor keeps the machine on the generic
    per-access path: the kernel never engages and every statistic still
    matches the kernel replay bit for bit."""

    def test_directory(self):
        kernel = DirectoryMachine(_config(), BASIC)
        registry.engagements.clear()
        kernel.run(_trace())
        assert registry.engagements["directory"] == 1

        seen = []
        hooked = DirectoryMachine(
            _config(), BASIC,
            step_hook=lambda m, p, b: seen.append((p, b)),
        )
        registry.engagements.clear()
        hooked.run(_trace())
        assert registry.engagements["directory"] == 0
        assert seen
        assert hooked.cache_stats == kernel.cache_stats
        assert hooked.stats.short == kernel.stats.short
        assert hooked.stats.data == kernel.stats.data

    def test_bus(self):
        kernel = BusMachine(_config(), MesiProtocol())
        registry.engagements.clear()
        kernel.run(_trace())
        assert registry.engagements["bus"] == 1

        seen = []
        hooked = BusMachine(
            _config(), MesiProtocol(),
            step_hook=lambda m, p, b: seen.append((p, b)),
        )
        registry.engagements.clear()
        hooked.run(_trace())
        assert registry.engagements["bus"] == 0
        assert seen
        assert hooked.cache_stats == kernel.cache_stats
        assert hooked.bus_stats.by_kind == kernel.bus_stats.by_kind
