"""repro.telemetry — structured observability for the simulators.

The paper's claim is behavioural: adaptive protocols *detect* migratory
blocks on-line.  This package makes that behaviour observable instead
of only its end-of-run aggregates:

* :mod:`repro.telemetry.metrics` — a labeled metrics registry
  (counters, gauges, histograms) with a deterministic, commutative
  merge so ``--jobs N`` workers combine byte-identically;
* :mod:`repro.telemetry.events` — typed event records (coherence
  steps, classification transitions, spans) and their schema;
* :mod:`repro.telemetry.recorder` — machine instrumentation through
  the ``step_hook`` observer on both machines;
* :mod:`repro.telemetry.timeline` — per-block classification
  timelines rebuilt from events alone;
* :mod:`repro.telemetry.sinks` — JSONL event logs and the Prometheus
  text exporter;
* :mod:`repro.telemetry.runtime` — the ambient session and ``span()``
  timing used by the experiment runner and the fuzz harness;
* :mod:`repro.telemetry.cli` — the ``repro-stats`` renderer.

Everything is zero-overhead when off: without an active session and
with no recorder attached, the machines replay through their kernel
fast paths untouched, and each instrumentation point costs one
``is None`` test.  See ``docs/OBSERVABILITY.md`` for the event schema,
metric naming, and exporter formats.
"""

from repro.telemetry.events import (
    ClassificationEvent,
    CoherenceEvent,
    SpanEvent,
    deterministic_records,
    validate_jsonl,
    validate_record,
    validate_records,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    merge_dicts,
)
from repro.telemetry.recorder import (
    BusRecorder,
    DirectoryRecorder,
    MachineRecorder,
    attach_recorder,
)
from repro.telemetry.runtime import (
    TelemetrySession,
    active,
    attach,
    configure,
    session,
    shutdown,
    span,
)
from repro.telemetry.sinks import (
    JsonlSink,
    MemorySink,
    read_jsonl,
    write_prometheus,
)
from repro.telemetry.timeline import (
    BlockTimeline,
    build_timelines,
    classification_counts,
    hot_block_table,
    migratory_blocks,
    render_timelines,
)

__all__ = [
    "BlockTimeline",
    "BusRecorder",
    "ClassificationEvent",
    "CoherenceEvent",
    "Counter",
    "DirectoryRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MachineRecorder",
    "MemorySink",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "SpanEvent",
    "TelemetrySession",
    "active",
    "attach",
    "attach_recorder",
    "build_timelines",
    "classification_counts",
    "configure",
    "deterministic_records",
    "hot_block_table",
    "merge_dicts",
    "migratory_blocks",
    "read_jsonl",
    "render_timelines",
    "session",
    "shutdown",
    "span",
    "validate_jsonl",
    "validate_record",
    "validate_records",
    "write_prometheus",
]
