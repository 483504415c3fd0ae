"""The ambient telemetry session and span timing.

A :class:`TelemetrySession` bundles a metrics registry with an event
sink and (optionally) an output directory; :func:`configure` installs
it as the process-wide active session, and the instrumentation points
scattered through the harness — the experiment runner, the trace-replay
helpers, the fuzz-oracle stages — consult :func:`active` and do nothing
when no session is installed.  "Nothing" is one module-global ``is
None`` test, which is what makes the whole subsystem zero-overhead
when off.

Spans measure wall-clock durations (``time.perf_counter``); they feed a
histogram (``repro_span_seconds``) and, when the session has an event
sink, ``span`` records.  Durations are inherently nondeterministic, so
they are excluded from the byte-identical merge contract (see
:func:`repro.telemetry.events.deterministic_records`).

Sessions do not cross process boundaries: ``parallel_map`` workers see
no active session, so a ``--jobs N`` sweep records spans and events
only for work done in the parent process.  Workers that want telemetry
build their own registry and return it as a payload for
:func:`repro.telemetry.metrics.merge_dicts` (the pattern the
worker-merge regression test locks in).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from repro.telemetry.events import SpanEvent
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import MachineRecorder, attach_recorder
from repro.telemetry.sinks import JsonlSink, write_prometheus

#: File names written into a session's output directory.
EVENTS_FILENAME = "events.jsonl"
METRICS_FILENAME = "metrics.prom"

#: Histogram receiving every span duration.
SPAN_SECONDS = "repro_span_seconds"

_ACTIVE: "TelemetrySession | None" = None


class TelemetrySession:
    """One observability scope: a registry, a sink, an output directory.

    Args:
        directory: when given, events stream to ``events.jsonl`` inside
            it and :meth:`close` dumps the registry to ``metrics.prom``.
        registry: the metrics registry (a fresh enabled one by default).
        sink: an explicit event sink; overrides ``directory``'s JSONL.
        instrument_machines: whether :meth:`attach` installs machine
            recorders.  When False the session records spans and
            campaign metrics only, leaving machines on their kernel
            fast paths.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        registry: MetricsRegistry | None = None,
        sink=None,
        instrument_machines: bool = True,
    ):
        self.directory = Path(directory) if directory is not None else None
        self.registry = registry if registry is not None else MetricsRegistry()
        if sink is None and self.directory is not None:
            sink = JsonlSink(self.directory / EVENTS_FILENAME)
        self.sink = sink
        self.instrument_machines = instrument_machines
        self._recorders: list[MachineRecorder] = []

    # ------------------------------------------------------------------

    def attach(self, machine) -> MachineRecorder | None:
        """Instrument one machine (returns None when machine events are
        disabled for this session)."""
        if not self.instrument_machines:
            return None
        recorder = attach_recorder(
            machine, registry=self.registry, sink=self.sink
        )
        self._recorders.append(recorder)
        return recorder

    @contextmanager
    def span(self, name: str, **meta):
        """Time a block; records a histogram sample and a span event."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.registry.histogram(
                SPAN_SECONDS, "harness stage durations"
            ).observe(elapsed, span=name)
            if self.sink is not None:
                self.sink.write(SpanEvent(name, elapsed, meta).to_record())

    def close(self) -> None:
        """Flush the sink and dump the metrics snapshot (idempotent)."""
        if self.directory is not None:
            write_prometheus(
                self.registry, self.directory / METRICS_FILENAME
            )
        closer = getattr(self.sink, "close", None)
        if closer is not None:
            closer()


# ----------------------------------------------------------------------
# The process-wide ambient session
# ----------------------------------------------------------------------

def configure(session: TelemetrySession | None) -> TelemetrySession | None:
    """Install ``session`` as the active one; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = session
    return previous


def active() -> TelemetrySession | None:
    """The active session, or None (the common, zero-cost case)."""
    return _ACTIVE


def shutdown() -> None:
    """Close and uninstall the active session, if any."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
        _ACTIVE = None


@contextmanager
def session(
    directory: str | Path | None = None, **kwargs
):
    """Run a block under a fresh active session; closes it on exit."""
    sess = TelemetrySession(directory, **kwargs)
    previous = configure(sess)
    try:
        yield sess
    finally:
        sess.close()
        configure(previous)


@contextmanager
def span(name: str, **meta):
    """Time a block against the active session; free no-op without one.

    This is the form the harness instrumentation points use::

        with telemetry.span("replay.directory", app=trace.name):
            machine.run(trace)
    """
    sess = _ACTIVE
    if sess is None:
        yield
        return
    with sess.span(name, **meta):
        yield


def attach(machine) -> MachineRecorder | None:
    """Instrument ``machine`` against the active session, if any."""
    sess = _ACTIVE
    if sess is None:
        return None
    return sess.attach(machine)


def count(name: str, help_text: str, **labels) -> None:
    """Bump a counter on the active session's registry; free no-op
    without one.  The ambient-metric form instrumentation points use
    (the replay result cache records its hits and misses this way)."""
    sess = _ACTIVE
    if sess is None:
        return
    sess.registry.counter(name, help_text).inc(**labels)


def machine_instrumentation_active() -> bool:
    """Whether the active session instruments machine replays.

    Consumers that would change what an instrumented replay observes —
    the replay result cache, which skips the replay entirely — must
    stand down when this is True.
    """
    sess = _ACTIVE
    return sess is not None and sess.instrument_machines
