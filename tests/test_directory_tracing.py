"""Classification tracing through the telemetry recorder.

A :class:`~repro.telemetry.recorder.DirectoryRecorder` attached to a
directory machine answers the debugging questions a protocol architect
asks — "when did this block get promoted?", "why did the conservative
protocol classify it later?" — from its coherence and classification
records, and :mod:`repro.telemetry.timeline` renders one block's story.
"""

from repro.common.config import CacheConfig, MachineConfig
from repro.common.types import read, write
from repro.directory.entry import DirState
from repro.directory.policy import BASIC, CONSERVATIVE
from repro.system.machine import DirectoryMachine
from repro.telemetry.recorder import attach_recorder
from repro.telemetry.timeline import build_timelines
from repro.trace.core import Trace


def config():
    return MachineConfig(
        num_procs=4, cache=CacheConfig(size_bytes=None, block_size=16)
    )


MIGRATION = Trace([
    write(1, 0),
    read(2, 0), write(2, 0),
    read(3, 0), write(3, 0),
])


def trace_classification(trace, policy):
    """Replay ``trace`` with a recorder attached; ``(machine, records)``."""
    machine = DirectoryMachine(config(), policy)
    recorder = attach_recorder(machine)
    machine.run(trace)
    return machine, recorder.records


def events(records, block, kind):
    return [r for r in records if r["type"] == kind and r["block"] == block]


class TestTracingProtocol:
    def test_behaves_identically_to_untraced(self):
        plain = DirectoryMachine(config(), BASIC)
        plain.run(MIGRATION)
        traced_machine, _records = trace_classification(MIGRATION, BASIC)
        assert traced_machine.stats.snapshot() == plain.stats.snapshot()
        assert traced_machine.cache_stats == plain.cache_stats

    def test_events_recorded_in_order(self):
        _machine, records = trace_classification(MIGRATION, BASIC)
        steps = events(records, 0, "coherence")
        # P3's write is silent (the block migrated in with write
        # permission), so it never reaches the directory.
        assert [e["kind"] for e in steps] == [
            "write_miss", "read_miss", "upgrade", "read_miss"]
        assert [e["step"] for e in steps] == sorted(e["step"] for e in steps)

    def test_promotion_flagged(self):
        _machine, records = trace_classification(MIGRATION, BASIC)
        changes = events(records, 0, "classification")
        promotions = [e for e in changes if e["transition"] == "promote"]
        assert len(promotions) == 1
        event = promotions[0]
        assert event["proc"] == 2
        assert event["to"] == DirState.ONE_COPY_MIG.value
        upgrade = next(e for e in events(records, 0, "coherence")
                       if e["step"] == event["step"])
        assert upgrade["kind"] == "upgrade"

    def test_conservative_promotes_later(self):
        _machine, records = trace_classification(MIGRATION, CONSERVATIVE)
        promotions = [e for e in events(records, 0, "classification")
                      if e["transition"] == "promote"]
        assert len(promotions) == 1
        assert promotions[0]["proc"] == 3  # second evidence event

    def test_demotion_flagged(self):
        trace = Trace([
            write(1, 0), read(2, 0), write(2, 0),  # promote
            read(3, 0),  # migrate to P3 (clean)
            read(1, 0),  # clean migratory: demote
        ])
        _machine, records = trace_classification(trace, BASIC)
        demotions = [e for e in events(records, 0, "classification")
                     if e["transition"] == "demote"]
        assert len(demotions) == 1
        step = next(e for e in events(records, 0, "coherence")
                    if e["step"] == demotions[0]["step"])
        assert step["kind"] == "read_miss"

    def test_blocks_isolated(self):
        trace = Trace([write(1, 0), write(2, 64)])
        _machine, records = trace_classification(trace, BASIC)
        assert len(events(records, 0, "coherence")) == 1
        assert len(events(records, 4, "coherence")) == 1


class TestExplainBlock:
    def test_untouched_block(self):
        _machine, records = trace_classification(MIGRATION, BASIC)
        assert not [r for r in records if r["block"] == 99]
        assert ("directory[basic]", 99) not in build_timelines(records)

    def test_story_lines(self):
        _machine, records = trace_classification(MIGRATION, BASIC)
        timeline = build_timelines(records)[("directory[basic]", 0)]
        (promote,) = [e for e in events(records, 0, "classification")
                      if e["transition"] == "promote"]
        assert timeline.promotions == [promote["step"]]
        assert timeline.demotions == []
        assert timeline.final_migratory
        assert timeline.describe() == (
            f"block 0x0 [directory[basic]]: migratory from step "
            f"{promote['step']}")
