"""Unit tests for the workload execution engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DeadlockError, WorkloadError
from repro.common.types import Op
from repro.workloads.engine import (
    Acquire,
    BarrierWait,
    Engine,
    Heap,
    LocalCompute,
    ReadEffect,
    Release,
    WriteEffect,
    run_program,
)


class TestHeap:
    def test_bump_allocation(self):
        h = Heap()
        a = h.alloc(16)
        b = h.alloc(16)
        assert b == a + 16
        assert h.used == 32

    def test_alignment(self):
        h = Heap()
        h.alloc(3)
        b = h.alloc(4, align=8)
        assert b % 8 == 0

    def test_alloc_words(self):
        h = Heap()
        assert h.alloc_words(4) == 0
        assert h.used == 16

    def test_base_offset(self):
        assert Heap(base=4096).alloc(4) == 4096

    def test_rejects_bad_sizes(self):
        with pytest.raises(WorkloadError):
            Heap().alloc(0)
        with pytest.raises(WorkloadError):
            Heap().alloc(4, align=3)


class TestEngineBasics:
    def test_single_thread_trace(self):
        def prog():
            yield ReadEffect(0)
            yield WriteEffect(4)
            yield ReadEffect(8)

        engine = Engine(1)
        engine.spawn(0, prog())
        trace = engine.run()
        assert [(a.proc, a.op, a.addr) for a in trace] == [
            (0, Op.READ, 0),
            (0, Op.WRITE, 4),
            (0, Op.READ, 8),
        ]

    def test_program_order_preserved_per_proc(self):
        def prog(proc):
            for i in range(50):
                yield ReadEffect(proc * 1024 + i * 4)

        trace = run_program(4, lambda p: prog(p), seed=3)
        for proc in range(4):
            addrs = [a.addr for a in trace if a.proc == proc]
            assert addrs == [proc * 1024 + i * 4 for i in range(50)]

    def test_interleaving_deterministic(self):
        def prog(proc):
            for i in range(20):
                yield WriteEffect(proc * 64 + i * 4)

        t1 = run_program(4, prog, seed=9)
        t2 = run_program(4, prog, seed=9)
        assert list(t1) == list(t2)
        t3 = run_program(4, prog, seed=10)
        assert list(t3) != list(t1)

    def test_threads_actually_interleave(self):
        def prog(proc):
            for i in range(50):
                yield ReadEffect(proc * 1024)

        trace = run_program(2, prog, seed=1)
        procs = [a.proc for a in trace]
        assert procs != sorted(procs)

    def test_invalid_proc_rejected(self):
        engine = Engine(2)
        with pytest.raises(WorkloadError):
            engine.spawn(5, iter([]))

    def test_bad_engine_params(self):
        with pytest.raises(WorkloadError):
            Engine(0)
        with pytest.raises(WorkloadError):
            Engine(2, max_quantum=0)


class TestLocks:
    def test_mutual_exclusion_serialises_critical_sections(self):
        """Accesses inside one lock's critical sections never interleave."""
        events = []

        def prog(proc):
            for _ in range(10):
                yield Acquire("L")
                events.append(("enter", proc))
                yield ReadEffect(0)
                yield WriteEffect(0)
                events.append(("exit", proc))
                yield Release("L")

        run_program(4, prog, seed=2, max_quantum=1)
        depth = 0
        for kind, _proc in events:
            depth += 1 if kind == "enter" else -1
            assert 0 <= depth <= 1

    def test_double_acquire_rejected(self):
        def prog():
            yield Acquire("L")
            yield Acquire("L")

        engine = Engine(1)
        engine.spawn(0, prog())
        with pytest.raises(WorkloadError):
            engine.run()

    def test_release_unheld_rejected(self):
        def prog():
            yield Release("L")

        engine = Engine(1)
        engine.spawn(0, prog())
        with pytest.raises(WorkloadError):
            engine.run()

    def test_exit_holding_lock_rejected(self):
        def prog():
            yield Acquire("L")

        engine = Engine(1)
        engine.spawn(0, prog())
        with pytest.raises(WorkloadError):
            engine.run()

    def test_lock_deadlock_detected(self):
        def prog_a():
            yield Acquire("A")
            yield Acquire("B")
            yield Release("B")
            yield Release("A")

        def prog_b():
            yield Acquire("B")
            yield Acquire("A")
            yield Release("A")
            yield Release("B")

        # Force the interleaving that deadlocks: quantum of 1 and many
        # seeds; at least one seed must interleave the first acquires.
        saw_deadlock = False
        for seed in range(20):
            engine = Engine(2, seed=seed, max_quantum=1)
            engine.spawn(0, prog_a())
            engine.spawn(1, prog_b())
            try:
                engine.run()
            except DeadlockError:
                saw_deadlock = True
                break
        assert saw_deadlock

    def test_sync_accesses_not_traced(self):
        def prog():
            yield Acquire("L")
            yield ReadEffect(0)
            yield Release("L")

        engine = Engine(1)
        engine.spawn(0, prog())
        trace = engine.run()
        assert len(trace) == 1  # only the data access


class TestBarriers:
    def test_barrier_synchronises(self):
        order = []

        def prog(proc):
            order.append(("before", proc))
            yield BarrierWait("b")
            order.append(("after", proc))
            yield ReadEffect(proc * 4)

        run_program(4, prog, seed=5)
        befores = [i for i, (k, _) in enumerate(order) if k == "before"]
        afters = [i for i, (k, _) in enumerate(order) if k == "after"]
        assert max(befores) < min(afters)

    def test_barrier_sequence(self):
        phase_of_access = {}

        def prog(proc):
            yield WriteEffect(proc * 4)
            yield BarrierWait("phase1")
            yield WriteEffect(1024 + proc * 4)
            yield BarrierWait("phase2")
            yield WriteEffect(2048 + proc * 4)

        trace = run_program(3, prog, seed=6)
        regions = [a.addr // 1024 for a in trace]
        assert regions == sorted(regions)

    def test_finished_threads_do_not_block_barrier(self):
        def short(proc):
            yield ReadEffect(proc * 4)

        def long(proc):
            yield ReadEffect(proc * 4)
            yield BarrierWait("b")
            yield ReadEffect(1024 + proc * 4)

        engine = Engine(3, seed=7)
        engine.spawn(0, short(0))
        engine.spawn(1, long(1))
        engine.spawn(2, long(2))
        trace = engine.run()  # must terminate
        assert len(trace) == 5

    def test_reused_barrier_name(self):
        def prog(proc):
            for step in range(3):
                yield WriteEffect(step * 1024 + proc * 4)
                yield BarrierWait("step")

        trace = run_program(4, prog, seed=8)
        steps = [a.addr // 1024 for a in trace]
        assert steps == sorted(steps)


class TestLocalCompute:
    def test_not_traced(self):
        from repro.workloads.engine import LocalCompute

        def prog():
            yield ReadEffect(0)
            yield LocalCompute(5)
            yield WriteEffect(4)

        engine = Engine(1)
        engine.spawn(0, prog())
        trace = engine.run()
        assert len(trace) == 2

    def test_large_compute_yields_the_processor(self):
        """A big compute block ends the thread's quantum, letting other
        threads interleave mid-sequence."""
        from repro.workloads.engine import LocalCompute

        def busy(proc):
            for i in range(10):
                yield WriteEffect(proc * 1024 + i * 4)
                yield LocalCompute(100)

        trace = run_program(2, busy, seed=4, max_quantum=8)
        procs = [a.proc for a in trace]
        # with forced yields, the two threads must interleave
        assert procs != sorted(procs)

    def test_zero_cost_compute_allowed(self):
        from repro.workloads.engine import LocalCompute

        def prog():
            yield LocalCompute(0)
            yield ReadEffect(0)

        engine = Engine(1)
        engine.spawn(0, prog())
        assert len(engine.run()) == 1


# ----------------------------------------------------------------------
# The incremental scheduler against a rebuild-every-step oracle
# ----------------------------------------------------------------------


class OracleEngine:
    """The straightforward scheduler: it rebuilds ``live`` and
    ``runnable`` before every step and records boxed accesses.

    The production :class:`Engine` keeps those lists between steps and
    writes packed columns; both must make the same RNG draws, drive the
    generators in the same order, and produce the same trace and the
    same errors.
    """

    def __init__(self, num_procs, seed=0, max_quantum=8):
        import random

        self._rng = random.Random(seed)
        self._max_quantum = max_quantum
        self._threads = []
        self._locks = {}

    def spawn(self, proc, gen):
        self._threads.append(
            {"proc": proc, "gen": gen, "blocked_on": None, "done": False,
             "held": set()}
        )

    def _can_run(self, t):
        effect = t["blocked_on"]
        if effect is None:
            return True
        if isinstance(effect, Acquire):
            return self._locks.get(effect.lock) is None
        return False

    def _check_barriers(self, live):
        names = {
            t["blocked_on"].name
            for t in live
            if isinstance(t["blocked_on"], BarrierWait)
        }
        for name in names:
            here = [
                t for t in live
                if isinstance(t["blocked_on"], BarrierWait)
                and t["blocked_on"].name == name
            ]
            if len(here) == len(live):
                for t in here:
                    t["blocked_on"] = None

    def run(self):
        trace = []
        live = [t for t in self._threads if not t["done"]]
        while live:
            runnable = [t for t in live if self._can_run(t)]
            if not runnable:
                self._check_barriers(live)
                runnable = [t for t in live if self._can_run(t)]
                if not runnable:
                    raise DeadlockError(
                        f"{len(live)} threads blocked: "
                        f"{[str(t['blocked_on']) for t in live[:4]]}"
                    )
            self._step(self._rng.choice(runnable), trace)
            live = [t for t in self._threads if not t["done"]]
        return trace

    def _step(self, t, trace):
        if isinstance(t["blocked_on"], Acquire):
            self._locks[t["blocked_on"].lock] = t
            t["held"].add(t["blocked_on"].lock)
            t["blocked_on"] = None
        quantum = self._rng.randint(1, self._max_quantum)
        for _ in range(quantum):
            try:
                effect = next(t["gen"])
            except StopIteration:
                t["done"] = True
                if t["held"]:
                    raise WorkloadError(
                        f"thread on P{t['proc']} exited holding "
                        f"locks {sorted(t['held'])}"
                    ) from None
                return
            if isinstance(effect, ReadEffect):
                trace.append((t["proc"], 0, effect.addr))
            elif isinstance(effect, WriteEffect):
                trace.append((t["proc"], 1, effect.addr))
            elif isinstance(effect, Acquire):
                holder = self._locks.get(effect.lock)
                if holder is t:
                    raise WorkloadError(
                        f"P{t['proc']} re-acquired lock {effect.lock!r}"
                    )
                if holder is None:
                    self._locks[effect.lock] = t
                    t["held"].add(effect.lock)
                else:
                    t["blocked_on"] = effect
                    return
            elif isinstance(effect, Release):
                if self._locks.get(effect.lock) is not t:
                    raise WorkloadError(
                        f"P{t['proc']} released lock {effect.lock!r} "
                        "it does not hold"
                    )
                self._locks[effect.lock] = None
                t["held"].discard(effect.lock)
            elif isinstance(effect, BarrierWait):
                t["blocked_on"] = effect
                return
            elif isinstance(effect, LocalCompute):
                if effect.units >= quantum:
                    return
            else:
                raise WorkloadError(f"unknown effect: {effect!r}")


class Unknown:
    """An object no effect class matches."""

    def __repr__(self):
        return "Unknown()"


LOCKS = ["L0", "L1"]

# A program is a list of steps; "cs" is a critical section holding a
# nested run of locks around a body, the rest are single effects.  One
# program in four also carries a raw "acq"/"rel"/"bad" step, which
# mostly provokes an error.
_single = st.one_of(
    st.tuples(st.just("r"), st.integers(0, 15)),
    st.tuples(st.just("w"), st.integers(0, 15)),
    st.tuples(st.just("c"), st.integers(0, 10)),
)
_barrier = st.tuples(st.just("b"), st.sampled_from(["b0", "b1"]))
_critical = st.tuples(
    st.just("cs"),
    st.lists(st.sampled_from(LOCKS), min_size=1, max_size=2, unique=True),
    st.lists(_single, max_size=4),
)
_rare = st.one_of(
    st.tuples(st.just("acq"), st.sampled_from(LOCKS)),
    st.tuples(st.just("rel"), st.sampled_from(LOCKS)),
    st.tuples(st.just("bad")),
)
_thread = st.lists(st.one_of(_single, _critical, _critical, _barrier),
                   max_size=16)
_clean_programs = st.lists(_thread, min_size=1, max_size=5)
# Several threads looping over critical sections: locks change hands
# while others wait on them, the case the incremental lists must track.
_contended_programs = st.lists(
    st.lists(_critical, min_size=2, max_size=8), min_size=2, max_size=4
)


@st.composite
def _faulty_programs(draw):
    programs = draw(_clean_programs)
    steps = programs[draw(st.integers(0, len(programs) - 1))]
    steps.insert(draw(st.integers(0, len(steps))), draw(_rare))
    return programs


_programs = st.one_of(_clean_programs, _contended_programs,
                      _faulty_programs())


def _render(steps):
    for step in steps:
        kind = step[0]
        if kind == "r":
            yield ReadEffect(step[1] * 4)
        elif kind == "w":
            yield WriteEffect(step[1] * 4)
        elif kind == "c":
            yield LocalCompute(step[1])
        elif kind == "b":
            yield BarrierWait(step[1])
        elif kind == "acq":
            yield Acquire(step[1])
        elif kind == "rel":
            yield Release(step[1])
        elif kind == "bad":
            yield Unknown()
        else:
            for lock in step[1]:
                yield Acquire(lock)
            yield from _render(step[2])
            for lock in reversed(step[1]):
                yield Release(lock)


def _outcome(engine, programs):
    for proc, steps in enumerate(programs):
        engine.spawn(proc, _render(steps))
    try:
        result = engine.run()
    except (DeadlockError, WorkloadError) as exc:
        return type(exc), str(exc)
    if not isinstance(result, list):
        result = list(result.iter_packed())
    return "ok", result


class TestSchedulerMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        programs=_programs,
        seed=st.integers(0, 2**20),
        max_quantum=st.integers(1, 6),
    )
    def test_same_trace_and_errors(self, programs, seed, max_quantum):
        n = len(programs)
        got = _outcome(Engine(n, seed=seed, max_quantum=max_quantum), programs)
        want = _outcome(
            OracleEngine(n, seed=seed, max_quantum=max_quantum), programs
        )
        assert got == want

    @pytest.mark.parametrize(
        "steps,message",
        [
            ([("acq", "L0"), ("acq", "L0")], "re-acquired"),
            ([("rel", "L0")], "does not hold"),
            ([("acq", "L0")], "exited holding"),
            ([("r", 1), ("bad",)], "unknown effect"),
        ],
    )
    def test_error_cases(self, steps, message):
        got = _outcome(Engine(1), [steps])
        assert got == _outcome(OracleEngine(1), [steps])
        assert got[0] is WorkloadError and message in got[1]

    def test_contended_deadlock_matches(self):
        programs = [
            [("cs", ["L0", "L1"], [("w", 0)])],
            [("cs", ["L1", "L0"], [("w", 1)])],
        ]
        outcomes = {
            seed: _outcome(Engine(2, seed=seed, max_quantum=1), programs)
            for seed in range(20)
        }
        assert any(o[0] is DeadlockError for o in outcomes.values())
        for seed, got in outcomes.items():
            want = _outcome(
                OracleEngine(2, seed=seed, max_quantum=1), programs
            )
            assert got == want

    def test_effect_subclass_dispatches_like_its_base(self):
        class TaggedWrite(WriteEffect):
            pass

        class TaggedAcquire(Acquire):
            pass

        def prog(write, acquire):
            def worker(proc):
                for i in range(6):
                    yield acquire("L")
                    yield write(proc * 64 + i * 4)
                    yield Release("L")
            return worker

        base = run_program(3, prog(WriteEffect, Acquire), seed=5)
        tagged = run_program(3, prog(TaggedWrite, TaggedAcquire), seed=5)
        assert list(tagged.iter_packed()) == list(base.iter_packed())


class TestPackedOutput:
    def test_build_app_builds_no_access_objects(self):
        from repro.workloads.profiles import APP_ORDER, build_app

        for app in APP_ORDER:
            trace = build_app(app, num_procs=4, scale=0.02)
            assert trace._accesses is None
            assert len(trace) == len(trace.pack()) > 0

    def test_iteration_builds_accesses_lazily(self):
        trace = run_program(2, lambda p: iter([WriteEffect(p * 4)]), seed=1)
        assert trace._accesses is None
        assert sorted((a.proc, a.op, a.addr) for a in trace) == [
            (0, Op.WRITE, 0),
            (1, Op.WRITE, 4),
        ]

    def test_name_set_after_run_reaches_the_packed_form(self):
        trace = run_program(
            1, lambda p: iter([ReadEffect(0)]), name="renamed"
        )
        assert trace.name == trace.pack().name == "renamed"
