"""Tests for the deterministic event queue (sim.events)."""

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

from hypothesis import given, settings, strategies as st

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
    @settings(max_examples=200, deadline=None)
    def test_drains_in_scalar_heap_order(self, program):
        scalar = _run_program(program, EventQueue)
        batched = _run_program(program, BatchEventQueue)
        assert scalar == batched

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

    def test_pop_due_respects_horizon(self):
        q = BatchEventQueue()
        q.push(2.0, "early")
        q.push(9.0, "late")
        assert q.pop_due(5.0) == (2.0, "early")
        assert q.pop_due(5.0) is None
        assert len(q) == 1
        assert q.peek_time() == 9.0
