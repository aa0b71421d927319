"""Tests for the deterministic event queue (sim.events)."""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.sim.events import DeliverMessage, EventQueue, FireTimer


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        for name in ("first", "second", "third"):
            q.push(1.0, name)
        assert [q.pop()[1] for _ in range(3)] == ["first", "second", "third"]

    def test_pop_returns_time(self):
        q = EventQueue()
        q.push(2.5, "x")
        t, e = q.pop()
        assert t == 2.5 and e == "x"


class TestSafety:
    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_push_into_popped_past_raises(self):
        q = EventQueue()
        q.push(5.0, "later")
        q.pop()
        with pytest.raises(SimulationError):
            q.push(4.0, "past")

    def test_push_nan_raises(self):
        with pytest.raises(SimulationError, match="nan"):
            EventQueue().push(float("nan"), "never")

    def test_push_at_current_time_ok(self):
        q = EventQueue()
        q.push(5.0, "a")
        q.pop()
        q.push(5.0, "same-instant")  # same instant is legal
        assert q.pop() == (5.0, "same-instant")


class TestIntrospection:
    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(7.0, "x")
        q.push(3.0, "y")
        assert q.peek_time() == 3.0

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(1.0, "x")
        assert q and len(q) == 1


class TestEventTypes:
    def test_deliver_message_fields(self):
        e = DeliverMessage(node=3, message="m")
        assert e.node == 3 and e.message == "m"

    def test_fire_timer_fields(self):
        e = FireTimer(node=1, name="tick", generation=7)
        assert (e.node, e.name, e.generation) == (1, "tick", 7)


# ----------------------------------------------------------------------
# BatchEventQueue: the sorted-spine queue behind the simulator must
# drain in exactly the scalar heap's (time, seq) order.

from hypothesis import Phase, given, settings, strategies as st

from _engine_helpers import example_budget
from repro.sim.events import BatchEventQueue, TopologyChange


@st.composite
def queue_programs(draw):
    """A random interleaving of pushes, bursts of pushes and pops.

    Times are drawn from a small grid so same-instant ties are common —
    the tie-break (global insertion order) is exactly what this property
    pins.  Push times are offsets from the latest popped time, keeping
    every program legal (no pushes into the popped past).
    """
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("push"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
                st.tuples(
                    st.just("batch"),
                    st.lists(
                        st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
                        min_size=0,
                        max_size=6,
                    ),
                ),
                st.tuples(st.just("pop"), st.integers(min_value=1, max_value=4)),
            ),
            min_size=1,
            max_size=40,
        )
    )


def _run_program(program, make_queue):
    queue = make_queue()
    popped = []
    clock = 0.0  # latest popped time: pushes land at clock + offset
    tag = 0
    for op, arg in program:
        if op == "push":
            queue.push(clock + arg, tag)
            tag += 1
        elif op == "batch":
            for offset in arg:
                queue.push(clock + offset, tag)
                tag += 1
        else:
            for _ in range(arg):
                if len(queue) == 0:
                    break
                t, event = queue.pop()
                popped.append((t, event))
                clock = t
    while len(queue):
        popped.append(queue.pop())
    return popped


class TestBatchQueueEquivalence:
    @given(queue_programs())
    @settings(max_examples=example_budget(200), deadline=None)
    def test_drains_in_scalar_heap_order(self, program):
        scalar = _run_program(program, EventQueue)
        batched = _run_program(program, BatchEventQueue)
        assert scalar == batched

    def test_equal_times_straddling_a_merge(self):
        # After the first pop the spine holds a1, a3 (t=1) and a2 (t=2);
        # the pending batch brings more t=1 and t=2 entries plus b3 at
        # t=0.5, which forces the merge.  Each tie resolves spine first,
        # then push order — exactly the heap's (time, seq) order.
        program = [
            ("batch", [1.0, 2.0, 1.0, 0.0]),  # a1 a2 a3 a0
            ("pop", 1),
            ("batch", [2.0, 1.0, 0.5, 1.0]),  # b1 b2 b3 b4
        ]
        batched = _run_program(program, BatchEventQueue)
        assert batched == _run_program(program, EventQueue)
        a1, a2, a3, a0, b1, b2, b3, b4 = range(8)
        assert [tag for _, tag in batched] == [a0, b3, a1, a3, b2, b4, a2, b1]

    def test_same_instant_ties_break_by_insertion_order(self):
        q = BatchEventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        q.pop()  # trigger interleaving: merge state with a popped past
        q.push(1.0, "third")
        q.push(1.0, "fourth")
        q.push(1.0, "fifth")
        assert [q.pop()[1] for _ in range(4)] == [
            "second",
            "third",
            "fourth",
            "fifth",
        ]

    def test_topology_change_pops_before_same_instant_work(self):
        # The simulator schedules topology swaps before the loop
        # starts, so they hold the lowest seqs at their instant and must
        # surface ahead of same-time deliveries or timers pushed later.
        q = BatchEventQueue()
        swap = TopologyChange(topology=None)
        q.push(5.0, swap)
        q.push(0.0, "start")
        q.push(5.0, "delivery-at-5")
        q.push(5.0, "timer-at-5")
        assert q.pop() == (0.0, "start")
        assert q.pop() == (5.0, swap)
        assert [q.pop()[1] for _ in range(2)] == ["delivery-at-5", "timer-at-5"]


class TestBatchQueueSafety:
    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            BatchEventQueue().pop()

    def test_push_into_popped_past_raises(self):
        q = BatchEventQueue()
        q.push(5.0, "later")
        q.pop()
        with pytest.raises(SimulationError):
            q.push(4.0, "past")

    def test_push_nan_raises(self):
        q = BatchEventQueue(horizon=10.0)
        with pytest.raises(SimulationError, match="nan"):
            q.push(float("nan"), "never")
        assert len(q) == 0

    def test_push_past_the_horizon_is_dropped(self):
        q = BatchEventQueue(horizon=5.0)
        q.push(5.0, "at")
        q.push(math.nextafter(5.0, math.inf), "past")
        q.push(math.inf, "never")
        assert len(q) == 1
        assert q.pop() == (5.0, "at")
        assert q.pop_due(math.inf) is None
        # The popped-past guard still runs on a dropped push.
        with pytest.raises(SimulationError):
            q.push(4.0, "past")

    def test_pop_due_respects_horizon(self):
        q = BatchEventQueue()
        q.push(2.0, "early")
        q.push(9.0, "late")
        assert q.pop_due(5.0) == (2.0, "early")
        assert q.pop_due(5.0) is None
        assert len(q) == 1
        assert q.peek_time() == 9.0


# ----------------------------------------------------------------------
# Long programs: a large spine, sparse pops and bursts of early pushes —
# the shape of a ``uniform``-delay gossip run, where almost every batch
# holds an entry due before both heads.  These reach the secondary run,
# its fold into the spine, and ties across spine, run and pending batch.


def _live(queue):
    """``(spine, run, pending)`` live entry counts of a BatchEventQueue."""
    return (
        len(queue._spine) - 1 - queue._cursor,
        len(queue._run) - 1 - queue._run_cursor,
        len(queue._pending),
    )


@st.composite
def long_queue_programs(draw):
    """A large initial batch, then many steps of early bursts, late
    pushes and sparse pops (some bounded by a horizon).

    Offsets sit on a 0.25 grid so equal times meet across the spine,
    the run and the pending batch.  The initial batch comes from a drawn
    seed: drawing hundreds of offsets one by one would dominate the
    test's time.
    """
    grid = st.integers(min_value=0, max_value=40).map(lambda i: i * 0.25)
    early = st.integers(min_value=0, max_value=3).map(lambda i: i * 0.25)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    size = draw(st.integers(min_value=100, max_value=300))
    program = [("batch", [rng.randrange(41) * 0.25 for _ in range(size)])]
    program += draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("batch"), st.lists(early, min_size=1, max_size=20)),
                st.tuples(st.just("batch"), st.lists(grid, min_size=1, max_size=8)),
                st.tuples(st.just("pop"), st.integers(min_value=1, max_value=3)),
                st.tuples(st.just("pop_due"), early),
            ),
            min_size=20,
            max_size=80,
        )
    )
    return program


def _run_lockstep(program):
    """Run ``program`` on both queues at once, asserting after every
    step that pops, ``len`` and ``peek_time`` agree; return the drain
    order and every ``_live`` state seen."""
    heap, batched = EventQueue(), BatchEventQueue()
    popped, states = [], []
    clock = 0.0
    tag = 0
    for op, arg in program:
        if op == "batch":
            for offset in arg:
                heap.push(clock + offset, tag)
                batched.push(clock + offset, tag)
                tag += 1
        elif op == "pop":
            for _ in range(min(arg, len(heap))):
                item = heap.pop()
                assert batched.pop() == item
                popped.append(item)
                clock = item[0]
        else:
            limit = clock + arg
            item = batched.pop_due(limit)
            due = heap.peek_time() is not None and heap.peek_time() <= limit
            assert item == (heap.pop() if due else None)
            if item is not None:
                popped.append(item)
                clock = item[0]
        assert len(batched) == len(heap)
        assert batched.peek_time() == heap.peek_time()
        states.append(_live(batched))
    while len(heap):
        item = heap.pop()
        assert batched.pop() == item
        popped.append(item)
        states.append(_live(batched))
    assert len(batched) == 0 and batched.peek_time() is None
    return popped, states


class TestBatchQueueLongPrograms:
    # No shrink phase: a drawn long program shrinks poorly (a failing
    # one took minutes), so a failure is reported as drawn — inside the
    # ci step's time budget, at the full example budget — and the
    # lockstep assertion shows the first pop on which the queues differ.
    @given(long_queue_programs())
    @settings(
        max_examples=example_budget(30),
        deadline=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    def test_long_programs_drain_in_scalar_heap_order(self, program):
        _run_lockstep(program)

    def test_long_program_reaches_run_fold_and_ties(self):
        # One fixed long program of the generated shape must exercise
        # every path the property is there for.
        rng = random.Random(7)
        program = [("batch", [rng.randrange(41) * 0.25 for _ in range(300)])]
        for _ in range(80):
            program.append(("batch", [rng.randrange(4) * 0.25 for _ in range(12)]))
            program.append(("pop", rng.randint(1, 3)))
        popped, states = _run_lockstep(program)
        assert any(run > 0 and spine > 0 for spine, run, _ in states)
        assert any(
            before[1] > 0 and after[1] == 0 and after[0] > before[0]
            for before, after in zip(states, states[1:])
        ), "the run never folded into the spine"
        times = [t for t, _ in popped]
        assert len(times) - len(set(times)) > 100  # many same-instant ties


class TestBatchQueueFoldPaths:
    @staticmethod
    def _spine_of(n):
        q = BatchEventQueue()
        for i in range(n):
            q.push(10.0 + i, f"s{i}")
        assert q.pop() == (10.0, "s0")
        return q

    def test_first_merge_folds_into_the_empty_spine(self):
        q = BatchEventQueue()
        for i in range(5):
            q.push(float(i), i)
        assert _live(q) == (0, 0, 5)
        assert q.pop() == (0.0, 0)
        assert _live(q) == (4, 0, 0)

    def test_small_early_batch_stays_in_the_run(self):
        q = self._spine_of(41)  # 40 live spine entries from t = 11
        spine = list(q._spine)
        q.push(10.5, "early")
        q.push(11.0, "tie")
        assert q.pop() == (10.5, "early")
        assert _live(q) == (40, 1, 0)
        assert q._spine == spine  # untouched by the merge
        # Equal times: the spine's older entry first, then the run's.
        assert [q.pop()[1] for _ in range(2)] == ["s1", "tie"]

    def test_run_folds_once_it_outgrows_a_quarter_of_the_spine(self):
        q = self._spine_of(41)
        for i in range(10):  # 4 * 10 > 40 on the tenth merge
            q.push(q.peek_time() - 0.5, f"e{i}")
            q.push(30.0, f"late{i}")
            assert q.pop()[1] == f"e{i}"
            if i < 9:
                assert _live(q)[1] == i + 1
        assert _live(q) == (50, 0, 0)
        order = [q.pop()[1] for _ in range(50)]
        # t = 30: the spine's s20, then the late pushes in push order.
        at_30 = order.index("s20")
        assert order[at_30 : at_30 + 11] == ["s20"] + [f"late{i}" for i in range(10)]

    def test_exhausted_spine_takes_the_run(self):
        q = self._spine_of(41)
        q.push(10.5, "early")
        q.push(60.0, "after")
        assert q.pop() == (10.5, "early")
        assert _live(q) == (40, 1, 0)
        assert [q.pop()[1] for _ in range(40)] == [f"s{i}" for i in range(1, 41)]
        q.push(59.0, "before")
        # Due first, so it merges; the spine is empty, so the run folds.
        assert q.pop() == (59.0, "before")
        assert _live(q) == (1, 0, 0)
        assert q.pop() == (60.0, "after")
        assert q.pop_due(math.inf) is None

    def test_ties_across_spine_run_and_pending(self):
        q = self._spine_of(41)  # s5 at t = 15
        q.push(10.5, "early")
        q.push(15.0, "run-15")
        assert q.pop() == (10.5, "early")  # run-15 is now in the run
        q.push(15.0, "pending-15")
        assert [q.pop()[1] for _ in range(4)] == ["s1", "s2", "s3", "s4"]
        assert _live(q)[1:] == (1, 1)
        assert [q.pop()[1] for _ in range(3)] == ["s5", "run-15", "pending-15"]
