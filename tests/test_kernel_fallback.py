"""Kernel fallback accounting (``repro_kernel_fallback_total``).

Every kernel envelope gate that routes a replay back to the reference
path must say *why*: the module counter
(:data:`repro.kernels.registry.fallbacks`) keyed ``(engine, reason)``,
the ambient telemetry counter labelled the same way, and a DEBUG log
line.  Batch replay and the streaming backend check one envelope per
engine, so they name every fallback the same way.  An engaged kernel
replay must count nothing — fallbacks measure envelope gaps, not
traffic.
"""

import logging

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.common.types import Access, Op
from repro.directory.policy import BASIC
from repro.directory.representation import LimitedPointerDirectory
from repro.kernels import registry
from repro.kernels.streaming import replay_stream
from repro.protocols import registry as families
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import MesiProtocol
from repro.system.machine import DirectoryMachine
from repro.system.placement import RoundRobinPlacement
from repro.trace import synth
from repro.trace.core import Trace

NUM_PROCS = 4


def _trace(num_procs: int = NUM_PROCS, blocks: int = 2) -> Trace:
    accesses = []
    for _ in range(4):
        for proc in range(num_procs):
            for block in range(blocks):
                accesses.append(Access(proc, Op.READ, 16 * block))
                accesses.append(Access(proc, Op.WRITE, 16 * block))
    return Trace(accesses, name="fallback-probe")


def _config(num_procs: int = NUM_PROCS,
            size_bytes: int | None = None) -> MachineConfig:
    return MachineConfig(
        num_procs=num_procs,
        cache=CacheConfig(size_bytes=size_bytes, block_size=16),
    )


@pytest.fixture(autouse=True)
def _fresh_counters():
    registry.engagements.clear()
    registry.fallbacks.clear()
    yield
    registry.engagements.clear()
    registry.fallbacks.clear()


class TestNoFalsePositives:
    def test_engaged_directory_replay_counts_nothing(self):
        machine = DirectoryMachine(_config(), BASIC)
        machine.run(_trace())
        assert registry.engagements["directory"] == 1
        assert not registry.fallbacks

    def test_engaged_bus_replay_counts_nothing(self):
        machine = BusMachine(_config(), MesiProtocol())
        machine.run(_trace())
        assert registry.engagements["bus"] == 1
        assert not registry.fallbacks

    def test_engaged_stream_replay_counts_nothing(self):
        from repro.kernels.streaming import replay_stream

        machine = DirectoryMachine(_config(), BASIC)
        replay_stream(machine, _trace().pack(), chunk=16)
        assert registry.engagements["directory-stream"] == 1
        assert not registry.fallbacks

    def test_stream_fallback_is_counted_under_its_own_engine(self):
        from repro.kernels.streaming import replay_stream

        machine = DirectoryMachine(_config(size_bytes=64), BASIC)
        replay_stream(machine, _trace(blocks=8).pack(), chunk=16)
        assert registry.fallbacks[("directory-stream", "finite-cache")] == 1
        # ... and the fallback replay itself still engaged the batch
        # kernel, so nothing else was counted against the envelope.
        assert registry.engagements["directory"] == 1


class TestReasons:
    def test_disabled_context_manager(self):
        with registry.disabled():
            DirectoryMachine(_config(), BASIC).run(_trace())
            BusMachine(_config(), MesiProtocol()).run(_trace())
        assert registry.fallbacks[("directory", "disabled")] == 1
        assert registry.fallbacks[("bus", "disabled")] == 1
        assert registry.engagements["directory"] == 0
        assert registry.engagements["bus"] == 0

    def test_no_kernel_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        DirectoryMachine(_config(), BASIC).run(_trace())
        assert registry.fallbacks[("directory", "disabled")] == 1

    def test_not_fresh_machine(self):
        machine = DirectoryMachine(_config(), BASIC)
        machine.run(_trace())
        machine.run(_trace())  # second replay on a warm machine
        assert registry.engagements["directory"] == 1
        assert registry.fallbacks[("directory", "not-fresh")] == 1

    def test_evictions_on_a_tiny_finite_cache_engage(self):
        # 4 blocks of cache, 8 distinct blocks touched: replacement is
        # observable, and the eviction-aware group walks replay it —
        # the replay must engage and count NO fallback (segment
        # restarts are not fallbacks).
        machine = DirectoryMachine(_config(size_bytes=64), BASIC)
        machine.run(_trace(blocks=8))
        assert registry.engagements["directory"] == 1
        assert not registry.fallbacks
        assert (machine.cache_stats.evictions_dirty
                + machine.cache_stats.evictions_clean) > 0

    def test_random_replacement_falls_back(self):
        config = MachineConfig(
            num_procs=NUM_PROCS,
            cache=CacheConfig(size_bytes=64, block_size=16,
                              replacement="random"),
        )
        DirectoryMachine(config, BASIC).run(_trace(blocks=8))
        assert registry.fallbacks[("directory", "replacement-random")] == 1
        BusMachine(config, MesiProtocol()).run(_trace(blocks=8))
        assert registry.fallbacks[("bus", "replacement-random")] == 1

    def test_random_replacement_without_conflicts_engages(self):
        # The RNG is only unobservable when a set can actually evict;
        # a conflict-free replay engages whatever the replacement says.
        config = MachineConfig(
            num_procs=NUM_PROCS,
            cache=CacheConfig(size_bytes=64, block_size=16,
                              replacement="random"),
        )
        DirectoryMachine(config, BASIC).run(_trace(blocks=2))
        assert registry.engagements["directory"] == 1
        assert not registry.fallbacks

    def test_silent_clean_evictions_fall_back(self):
        config = MachineConfig(
            num_procs=NUM_PROCS,
            cache=CacheConfig(size_bytes=64, block_size=16),
            eviction_notification=False,
        )
        DirectoryMachine(config, BASIC).run(_trace(blocks=8))
        assert registry.engagements["directory"] == 0
        assert registry.fallbacks[("directory", "eviction-silent")] == 1
        # Without conflicts the notification flag is moot: engage.
        registry.fallbacks.clear()
        registry.engagements.clear()
        DirectoryMachine(config, BASIC).run(_trace(blocks=2))
        assert registry.engagements["directory"] == 1
        assert not registry.fallbacks

    def test_bus_not_fresh(self):
        machine = BusMachine(_config(), MesiProtocol())
        machine.run(_trace())
        machine.run(_trace())
        assert registry.engagements["bus"] == 1
        assert registry.fallbacks[("bus", "not-fresh")] == 1

    def test_clear_resets_fallbacks(self):
        registry.record_fallback("directory", "probe")
        assert registry.fallbacks
        registry.clear()
        assert not registry.fallbacks


def _finite_config(**kwargs) -> MachineConfig:
    """4 blocks of cache: an 8-block trace has conflict sets."""
    return MachineConfig(
        num_procs=NUM_PROCS,
        cache=CacheConfig(size_bytes=64, block_size=16,
                          replacement=kwargs.pop("replacement", "lru")),
        **kwargs,
    )


def _ran(machine):
    machine.run(_trace())
    return machine


class _AdHocPlacement(RoundRobinPlacement):
    pass


class _Subclass(DirectoryMachine):
    pass


def _hook(machine, proc, block):
    pass


#: ``(id, make_machine, trace_blocks, batch reason, stream reason)``.
#: The stream reason differs only where the stream adds its one gate of
#: its own, ``finite-cache``.
PARITY_CASES = [
    ("directory-not-fresh", lambda: _ran(DirectoryMachine(_config(), BASIC)),
     2, "not-fresh", "not-fresh"),
    ("bus-not-fresh", lambda: _ran(BusMachine(_config(), MesiProtocol())),
     2, "not-fresh", "not-fresh"),
    ("placement", lambda: DirectoryMachine(
        _config(), BASIC, placement=_AdHocPlacement(NUM_PROCS)),
     2, "placement", "placement"),
    ("representation", lambda: DirectoryMachine(
        _config(), BASIC, representation=LimitedPointerDirectory(2)),
     2, "representation", "representation"),
    ("directory-step-hook", lambda: DirectoryMachine(
        _config(), BASIC, step_hook=_hook), 2, "step-hook", "step-hook"),
    ("bus-step-hook", lambda: BusMachine(
        _config(), MesiProtocol(), step_hook=_hook),
     2, "step-hook", "step-hook"),
    ("directory-checker", lambda: DirectoryMachine(
        _config(), BASIC, check=True), 2, "checker", "checker"),
    ("bus-checker", lambda: BusMachine(
        _config(), MesiProtocol(), check=True), 2, "checker", "checker"),
    ("machine-subclass", lambda: _Subclass(_config(), BASIC),
     2, "machine-subclass", "machine-subclass"),
    ("directory-replacement-random", lambda: DirectoryMachine(
        _finite_config(replacement="random"), BASIC),
     8, "replacement-random", "finite-cache"),
    ("bus-replacement-random", lambda: BusMachine(
        _finite_config(replacement="random"), MesiProtocol()),
     8, "replacement-random", "finite-cache"),
    ("eviction-silent", lambda: DirectoryMachine(
        _finite_config(eviction_notification=False), BASIC),
     8, "eviction-silent", "finite-cache"),
] + [
    (f"bus-{fam.name}",
     lambda fam=fam: BusMachine(_config(), fam.make_protocol()),
     2, fam.fallback_reason, fam.fallback_reason)
    for fam in families.bus_families() if not fam.kernelable
] + [
    (f"directory-{fam.name}",
     lambda fam=fam: fam.machine_class()(_config(), fam.policy),
     2, fam.fallback_reason, fam.fallback_reason)
    for fam in families.directory_families() if not fam.kernelable
]


class TestBatchStreamParity:
    """Batch and stream record the same reason under their own labels."""

    @pytest.mark.parametrize(
        "make,blocks,batch_reason,stream_reason",
        [case[1:] for case in PARITY_CASES],
        ids=[case[0] for case in PARITY_CASES],
    )
    def test_same_reason(self, make, blocks, batch_reason, stream_reason):
        packed = _trace(blocks=blocks).pack()
        machine = make()
        engine = "directory" if hasattr(machine, "placement") else "bus"
        registry.fallbacks.clear()
        machine.run(packed)
        assert dict(registry.fallbacks) == {(engine, batch_reason): 1}

        machine = make()
        registry.fallbacks.clear()
        replay_stream(machine, packed, chunk=16)
        # The refused stream replays through machine.run, which names
        # the batch reason in turn.
        expected = {(f"{engine}-stream", stream_reason): 1,
                    (engine, batch_reason): 1}
        assert dict(registry.fallbacks) == expected

    @pytest.mark.parametrize("engine", ["directory", "bus"])
    def test_disabled(self, engine):
        make = {"directory": lambda: DirectoryMachine(_config(), BASIC),
                "bus": lambda: BusMachine(_config(), MesiProtocol())}[engine]
        packed = _trace().pack()
        with registry.disabled():
            make().run(packed)
            replay_stream(make(), packed, chunk=16)
        assert dict(registry.fallbacks) == {
            (engine, "disabled"): 2, (f"{engine}-stream", "disabled"): 1}


class TestWalkAbort:
    """A walk that aborts mid-replay is named ``walk-abort`` under the
    replaying engine's label — batch and stream alike — and the replay
    completes on the reference path with identical results."""

    @staticmethod
    def _trace():
        return synth.migratory(num_procs=8, num_objects=24, visits=6,
                               seed=11).pack()

    @pytest.mark.parametrize("engine", ["directory", "bus"])
    def test_node_limit(self, engine):
        packed = self._trace()
        if engine == "directory":
            make = lambda: DirectoryMachine(_config(8), BASIC)  # noqa: E731
            table = lambda: registry.dir_table(BASIC, 8)  # noqa: E731
            stats = lambda m: (m.stats, m.cache_stats)  # noqa: E731
        else:
            make = lambda: BusMachine(_config(8), MesiProtocol())  # noqa: E731
            table = lambda: registry.bus_table(MesiProtocol(), 8)  # noqa: E731
            stats = lambda m: (m.bus_stats, m.cache_stats)  # noqa: E731
        with registry.disabled():
            reference = make()
            reference.run(packed)
        registry.clear()
        table().node_limit = 4
        try:
            machine = make()
            replay_stream(machine, packed, chunk=64)
            recorded = dict(registry.fallbacks)
        finally:
            registry.clear()  # drop the capped table
        assert recorded == {
            (f"{engine}-stream", "walk-abort"): 1, (engine, "walk-abort"): 1}
        assert stats(machine) == stats(reference)

    @pytest.mark.parametrize("engine", ["directory", "bus"])
    def test_key_error(self, engine, monkeypatch):
        from repro.kernels import directory, snooping

        def missing_row(*args):
            raise KeyError("unprobed combination")

        kernel = directory if engine == "directory" else snooping
        monkeypatch.setattr(kernel, "_expand", missing_row)
        registry.clear()
        try:
            machine = (DirectoryMachine(_config(), BASIC)
                       if engine == "directory"
                       else BusMachine(_config(), MesiProtocol()))
            replay_stream(machine, _trace().pack(), chunk=16)
            recorded = dict(registry.fallbacks)
        finally:
            registry.clear()  # drop the half-grown tables
        assert recorded == {
            (f"{engine}-stream", "walk-abort"): 1, (engine, "walk-abort"): 1}
        assert machine.cache_stats.accesses == len(_trace())


class TestSweepEnvelope:
    """Paper-sweep geometries stay on the kernel fast path.

    Table 2 (cache-size sweep) runs finite, evicting caches under
    best-static placement — exactly the configurations the
    eviction-aware walks brought inside the envelope.  The sweep must
    record *zero* eviction- or placement-shaped fallbacks.
    """

    def test_table2_style_sweep_records_no_envelope_fallbacks(self, monkeypatch):
        from repro.experiments import common, table2

        monkeypatch.setenv("REPRO_RESULT_CACHE", "off")
        common.clear_caches()
        table2.run(apps=("mp3d",), cache_sizes=(4096,),
                   scale=0.1, num_procs=8)
        common.clear_caches()
        assert registry.engagements["directory"] > 0
        reasons = {reason for (_engine, reason) in registry.fallbacks}
        assert not reasons & {"evictions", "placement",
                              "replacement-random", "eviction-silent"}, (
            dict(registry.fallbacks))


class TestTelemetryMirror:
    def test_counter_lands_in_the_active_session(self, tmp_path):
        from repro.telemetry import runtime

        with runtime.session(tmp_path) as sess:
            with registry.disabled():
                DirectoryMachine(_config(), BASIC).run(_trace())
        counter = sess.registry.counter(registry.FALLBACK_METRIC)
        assert counter.value(engine="directory", reason="disabled") == 1

    def test_free_noop_without_a_session(self):
        # Must not raise (and must still count module-side).
        registry.record_fallback("bus", "probe")
        assert registry.fallbacks[("bus", "probe")] == 1


class TestDebugLog:
    def test_reason_logged_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.kernels"):
            registry.record_fallback("directory", "evictions")
        assert any("engine=directory" in message
                   and "reason=evictions" in message
                   for message in caplog.messages)

    def test_quiet_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.kernels"):
            registry.record_fallback("directory", "evictions")
        assert not caplog.messages
