"""Micro-benchmarks: simulator throughput (accesses per second).

Not a paper artifact — these time the simulation engines themselves so
regressions in the hot paths (cache lookup, directory dispatch, snoop
loops) are visible.  Unlike the table benchmarks these use multiple
rounds, since they are cheap.

``TRACE`` is a packable :class:`repro.trace.core.Trace`, so the machine
``run`` calls take the table-driven kernel; the ``*_unpacked`` variants
feed the same accesses as a plain list, timing the generic
per-``Access`` path for comparison.  ``benchmarks/record_throughput.py``
runs the same workload standalone and records the speedups in
``BENCH_throughput.json``.
"""

from repro.common.config import CacheConfig, MachineConfig
from repro.directory.policy import AGGRESSIVE, CONVENTIONAL
from repro.experiments import table2
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import AdaptiveSnoopingProtocol
from repro.system.machine import DirectoryMachine
from repro.trace import synth

CFG = MachineConfig(
    num_procs=16, cache=CacheConfig(size_bytes=64 * 1024, block_size=16)
)

TRACE = synth.interleave(
    [
        synth.migratory(num_procs=16, num_objects=16, visits=50, seed=1),
        synth.read_shared(num_procs=16, num_objects=16, rounds=20,
                          base=1 << 20, seed=2),
    ],
    chunk=8,
    seed=3,
)

#: The same accesses as a plain list: machines fall back to the generic
#: per-Access loop (no ``pack()`` attribute to dispatch on).
UNPACKED = list(TRACE)

# Resolve the packed columns once so every timed round measures replay,
# not the one-time packing cost.
TRACE.pack().blocks_column(CFG.cache.block_size.bit_length() - 1)

#: Small table2 slice for the parallel-vs-serial harness benchmarks.
_T2_KWARGS = dict(
    apps=("mp3d", "water"),
    cache_sizes=(16 * 1024, 64 * 1024),
    scale=0.1,
)


def test_directory_machine_throughput(benchmark):
    def run():
        machine = DirectoryMachine(CFG, AGGRESSIVE)
        machine.run(TRACE)
        return machine.stats.total

    total = benchmark(run)
    assert total > 0


def test_directory_machine_unpacked_throughput(benchmark):
    def run():
        machine = DirectoryMachine(CFG, AGGRESSIVE)
        machine.run(UNPACKED)
        return machine.stats.total

    total = benchmark(run)
    # The kernel path must not change the statistics.
    packed = DirectoryMachine(CFG, AGGRESSIVE)
    packed.run(TRACE)
    assert total == packed.stats.total


def test_directory_machine_conventional_throughput(benchmark):
    def run():
        machine = DirectoryMachine(CFG, CONVENTIONAL)
        machine.run(TRACE)
        return machine.stats.total

    total = benchmark(run)
    assert total > 0


def test_bus_machine_throughput(benchmark):
    def run():
        machine = BusMachine(CFG, AdaptiveSnoopingProtocol())
        machine.run(TRACE)
        return machine.bus_stats.total

    total = benchmark(run)
    assert total > 0


def test_bus_machine_unpacked_throughput(benchmark):
    def run():
        machine = BusMachine(CFG, AdaptiveSnoopingProtocol())
        machine.run(UNPACKED)
        return machine.bus_stats.total

    total = benchmark(run)
    packed = BusMachine(CFG, AdaptiveSnoopingProtocol())
    packed.run(TRACE)
    assert total == packed.bus_stats.total


def test_table2_serial_throughput(benchmark):
    def run():
        return table2.run(jobs=1, **_T2_KWARGS)

    rows = benchmark(run)
    assert len(rows) == 4


def test_table2_parallel_throughput(benchmark):
    def run():
        return table2.run(jobs=2, **_T2_KWARGS)

    rows = benchmark(run)
    # Fan-out must merge to exactly the serial result.
    assert rows == table2.run(jobs=1, **_T2_KWARGS)


def test_trace_generation_throughput(benchmark):
    def run():
        return len(synth.migratory(num_procs=16, num_objects=8, visits=100,
                                   seed=7))

    length = benchmark(run)
    assert length > 0
