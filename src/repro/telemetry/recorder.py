"""Machine instrumentation: ``step_hook`` -> typed event stream.

A recorder installs itself as a machine's ``step_hook`` and, at every
protocol-visible step, emits a :class:`~repro.telemetry.events.CoherenceEvent`
plus — whenever the step changed the block's migratory classification —
a :class:`~repro.telemetry.events.ClassificationEvent`.  Classification
is read straight from the engine's own state after the step:

* the directory machine's from the directory entry
  (:meth:`DirectoryProtocol.peek`), including the hysteresis evidence
  streak, so ``evidence`` events mark every partial step toward the
  policy threshold;
* the snooping machine's from the cache-line states (a block is
  migratory when some cache holds it Migratory-Clean/-Dirty — the
  classification is distributed, exactly as in the hardware).

Installing a hook keeps the machine on its reference path, every access
through ``_access_block`` (both machines guarantee this; see their
``run`` docstrings), so recorded runs are slower but statistically
identical to bare ones.  A
machine with *no* recorder attached pays nothing at all.

One sampling caveat, inherent to observing through the access stream:
a transition caused purely by an eviction of an unrelated block (the
``note_uncached`` path of a forgetting policy) is only observed — and
stamped — at the block's *next* protocol-visible step.  The paper's
directory policies remember classification across uncached intervals,
so for them the caveat is moot.
"""

from __future__ import annotations

from repro.common.errors import TelemetryError
from repro.directory.entry import DirState
from repro.telemetry.events import ClassificationEvent, CoherenceEvent
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY
from repro.telemetry.sinks import MemorySink

#: Metric names emitted by recorders (documented in docs/OBSERVABILITY.md).
STEPS_TOTAL = "repro_steps_total"
COHERENCE_TOTAL = "repro_coherence_events_total"
TRANSITIONS_TOTAL = "repro_classification_transitions_total"
MIGRATORY_BLOCKS = "repro_migratory_blocks"


class MachineRecorder:
    """Base recorder: step accounting and transition detection.

    Use :func:`attach_recorder` (or a telemetry session's ``attach``)
    rather than instantiating directly — it picks the right subclass
    for the machine and installs the hook.
    """

    __slots__ = ("engine", "family", "registry", "sink", "steps",
                 "migratory_blocks", "_blocks", "_patterns", "_counts")

    def __init__(self, engine: str, registry: MetricsRegistry | None = None,
                 sink=None, family: str = "-"):
        self.engine = engine
        #: Registered protocol-family name ("-" for ad-hoc protocols);
        #: stamped on every metric (``repro_protocol_family``) and
        #: classification record for per-family breakdowns.
        self.family = family
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.sink = sink if sink is not None else MemorySink()
        #: Protocol-visible steps observed.
        self.steps = 0
        #: Blocks currently classified migratory (as observed).
        self.migratory_blocks: set[int] = set()
        # block -> (migratory, streak, state name) after its last step.
        self._blocks: dict[int, tuple[bool, int, str]] = {}
        # block -> taxonomy label, for protocols exposing classify().
        self._patterns: dict[int, str] = {}
        # cache-stats snapshot used to infer each step's kind.
        self._counts = (0, 0, 0)

    # -- engine-specific classification readout -------------------------

    def _classify(self, machine, block: int) -> tuple[bool, int, str]:
        raise NotImplementedError

    def _initial(self, machine) -> tuple[bool, int, str]:
        raise NotImplementedError

    # -- the step_hook entry point --------------------------------------

    def hook(self, machine, proc: int, block: int) -> None:
        """The ``step_hook`` callable; fires after a protocol step."""
        stats = machine.cache_stats
        counts = (stats.read_misses, stats.write_misses, stats.upgrades)
        prev_counts = self._counts
        self._counts = counts
        step = stats.accesses
        if counts[0] > prev_counts[0]:
            kind = "read_miss"
        elif counts[1] > prev_counts[1]:
            kind = "write_miss"
        elif counts[2] > prev_counts[2]:
            kind = "upgrade"
        else:
            # A bus-silent write hit (the snooping machine's hook also
            # fires there): no protocol transition, nothing to record.
            return
        self.steps += 1
        registry = self.registry
        registry.counter(
            STEPS_TOTAL, "protocol-visible steps observed"
        ).inc(engine=self.engine, repro_protocol_family=self.family)
        registry.counter(
            COHERENCE_TOTAL, "coherence steps by kind"
        ).inc(engine=self.engine, kind=kind,
              repro_protocol_family=self.family)
        self.sink.write(
            CoherenceEvent(step, self.engine, kind, proc, block).to_record()
        )

        classify = getattr(machine.protocol, "classify", None)
        if classify is not None:
            # A taxonomy-exposing protocol (the pattern-classifier
            # family): emit a ``pattern`` event whenever the block's
            # label changes, independent of migratory transitions.
            label = classify(block)
            prev_label = self._patterns.get(block, "untouched")
            if label != prev_label:
                self._patterns[block] = label
                registry.counter(
                    TRANSITIONS_TOTAL,
                    "classification transitions by direction",
                ).inc(engine=self.engine, direction="pattern",
                      repro_protocol_family=self.family)
                self.sink.write(
                    ClassificationEvent(
                        step, self.engine, block, proc, "pattern",
                        prev_label, label, 0, self.family,
                    ).to_record()
                )

        migratory, streak, state = self._classify(machine, block)
        prev = self._blocks.get(block)
        if prev is None:
            prev = self._initial(machine)
        prev_migratory, prev_streak, prev_state = prev
        self._blocks[block] = (migratory, streak, state)
        # The sampled migratory set tracks every observation, not just
        # flips: under an initially-migratory policy a block can be
        # migratory at its first sample without ever transitioning.
        before = len(self.migratory_blocks)
        if migratory:
            self.migratory_blocks.add(block)
        else:
            self.migratory_blocks.discard(block)
        if len(self.migratory_blocks) != before:
            registry.gauge(
                MIGRATORY_BLOCKS, "blocks currently classified migratory"
            ).set(len(self.migratory_blocks), engine=self.engine,
                  repro_protocol_family=self.family)
        if migratory != prev_migratory:
            transition = "promote" if migratory else "demote"
        elif streak > prev_streak:
            # Hysteresis progress: evidence accrued below the threshold.
            transition = "evidence"
        else:
            return
        registry.counter(
            TRANSITIONS_TOTAL, "classification transitions by direction"
        ).inc(engine=self.engine, direction=transition,
              repro_protocol_family=self.family)
        self.sink.write(
            ClassificationEvent(
                step, self.engine, block, proc, transition,
                prev_state, state, streak, self.family,
            ).to_record()
        )

    # -- conveniences ----------------------------------------------------

    @property
    def records(self) -> list[dict]:
        """The collected records (memory-sink recorders only)."""
        if not isinstance(self.sink, MemorySink):
            raise TelemetryError(
                "records are only buffered on a MemorySink recorder"
            )
        return self.sink.records


class DirectoryRecorder(MachineRecorder):
    """Recorder for :class:`repro.system.machine.DirectoryMachine`."""

    __slots__ = ()

    def _classify(self, machine, block: int) -> tuple[bool, int, str]:
        ent = machine.protocol.peek(block)
        if ent is None:
            return self._initial(machine)
        return ent.migratory, ent.streak, ent.state.value

    def _initial(self, machine) -> tuple[bool, int, str]:
        if machine.policy.initial_migratory:
            return True, 0, DirState.UNCACHED_MIG.value
        return False, 0, DirState.UNCACHED.value


class BusRecorder(MachineRecorder):
    """Recorder for :class:`repro.snooping.machine.BusMachine`."""

    __slots__ = ()

    def _classify(self, machine, block: int) -> tuple[bool, int, str]:
        for cache in machine.caches:
            line = cache.lookup(block)
            if line is not None and line.state.is_migratory:
                return True, 0, "migratory"
        return False, 0, "non-migratory"

    def _initial(self, machine) -> tuple[bool, int, str]:
        if getattr(machine.protocol, "initial_migratory", False):
            return True, 0, "migratory"
        return False, 0, "non-migratory"


def attach_recorder(
    machine,
    registry: MetricsRegistry | None = None,
    sink=None,
    engine: str | None = None,
) -> MachineRecorder:
    """Install a recorder as ``machine.step_hook``; returns the recorder.

    The machine must not already have a hook (two observers would each
    see half a stream); the engine label defaults to the oracle-style
    ``directory[policy]`` / ``bus[protocol]`` form.

    Raises:
        TelemetryError: on an unknown machine type or an occupied hook.
    """
    from repro.protocols import registry as families
    from repro.snooping.machine import BusMachine
    from repro.system.machine import DirectoryMachine

    if getattr(machine, "step_hook", None) is not None:
        raise TelemetryError(
            "machine already has a step_hook installed; refusing to replace it"
        )
    if isinstance(machine, DirectoryMachine):
        fam = families.family_of_policy(machine.policy)
        recorder = DirectoryRecorder(
            engine or f"directory[{machine.policy.name}]", registry, sink,
            family=fam.name if fam is not None else "-",
        )
    elif isinstance(machine, BusMachine):
        fam = families.family_of_protocol(machine.protocol)
        recorder = BusRecorder(
            engine or f"bus[{machine.protocol.name}]", registry, sink,
            family=fam.name if fam is not None else "-",
        )
    else:
        raise TelemetryError(
            f"cannot attach a recorder to {type(machine).__name__}"
        )
    stats = machine.cache_stats
    recorder._counts = (
        stats.read_misses, stats.write_misses, stats.upgrades
    )
    machine.step_hook = recorder.hook
    return recorder
