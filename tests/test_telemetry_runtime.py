"""The ambient telemetry session, spans, and zero-overhead-off hooks."""

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.common.types import Access, Op
from repro.directory.policy import BASIC
from repro.system.machine import DirectoryMachine
from repro.telemetry import runtime
from repro.telemetry.runtime import (
    EVENTS_FILENAME,
    METRICS_FILENAME,
    SPAN_SECONDS,
    TelemetrySession,
)
from repro.telemetry.sinks import MemorySink, read_jsonl
from repro.trace.core import Trace


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test starts and ends with no ambient session installed."""
    runtime.configure(None)
    yield
    runtime.configure(None)


def _tiny_machine() -> tuple[DirectoryMachine, Trace]:
    config = MachineConfig(
        num_procs=2, cache=CacheConfig(size_bytes=None, block_size=16)
    )
    trace = Trace(
        [Access(0, Op.READ, 0), Access(1, Op.WRITE, 0)], name="tiny"
    )
    return DirectoryMachine(config, BASIC), trace


class TestInactiveIsFree:
    def test_span_is_a_no_op(self):
        with runtime.span("anything", app="x"):
            pass  # must not raise, must not record

    def test_attach_is_a_no_op(self):
        machine, _ = _tiny_machine()
        assert runtime.attach(machine) is None
        assert machine.step_hook is None

    def test_active_is_none(self):
        assert runtime.active() is None


class TestSession:
    def test_directory_session_writes_both_files(self, tmp_path):
        with runtime.session(tmp_path) as sess:
            machine, trace = _tiny_machine()
            runtime.attach(machine)
            with runtime.span("replay.test", app="tiny"):
                machine.run(trace)
            assert runtime.active() is sess
        assert runtime.active() is None
        records = list(read_jsonl(tmp_path / EVENTS_FILENAME))
        types = {r["type"] for r in records}
        assert "coherence" in types and "span" in types
        metrics = (tmp_path / METRICS_FILENAME).read_text()
        assert SPAN_SECONDS in metrics
        assert "repro_steps_total" in metrics

    def test_span_records_histogram_and_event(self):
        sink = MemorySink()
        sess = TelemetrySession(sink=sink)
        with sess.span("stage.one", detail="x"):
            pass
        hist = sess.registry.histogram(SPAN_SECONDS)
        assert hist.count(span="stage.one") == 1
        (record,) = sink.records
        assert record["type"] == "span"
        assert record["name"] == "stage.one"
        assert record["detail"] == "x"

    def test_span_records_even_when_body_raises(self):
        sink = MemorySink()
        sess = TelemetrySession(sink=sink)
        with pytest.raises(RuntimeError):
            with sess.span("stage.boom"):
                raise RuntimeError("boom")
        assert sink.records[0]["name"] == "stage.boom"

    def test_instrument_machines_false_skips_recorders(self):
        sess = TelemetrySession(sink=MemorySink(),
                                instrument_machines=False)
        runtime.configure(sess)
        machine, trace = _tiny_machine()
        assert runtime.attach(machine) is None
        assert machine.step_hook is None  # kernel fast path stays open
        machine.run(trace)
        assert sess.sink.records == []

    def test_configure_returns_previous(self):
        first = TelemetrySession(sink=MemorySink())
        second = TelemetrySession(sink=MemorySink())
        assert runtime.configure(first) is None
        assert runtime.configure(second) is first
        assert runtime.active() is second

    def test_shutdown_closes_and_clears(self, tmp_path):
        runtime.configure(TelemetrySession(tmp_path))
        runtime.shutdown()
        assert runtime.active() is None
        assert (tmp_path / METRICS_FILENAME).exists()
        runtime.shutdown()  # idempotent with no active session
