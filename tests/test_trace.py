"""Tests for traces (sim.trace)."""

from repro.sim.trace import (
    JUMP,
    RECEIVE,
    SEND,
    START,
    TIMER,
    ColumnarTrace,
    ExecutionTrace,
    TraceEvent,
)


def ev(t, node, kind, hw=None, detail=None):
    return TraceEvent(
        real_time=t,
        node=node,
        hardware=hw if hw is not None else t,
        logical=t,
        kind=kind,
        detail=detail,
    )


def sample_trace():
    tr = ExecutionTrace()
    tr.append(ev(0.0, 0, START))
    tr.append(ev(0.0, 1, START))
    tr.append(ev(0.0, 0, SEND, detail=(1, "hello")))
    tr.append(ev(1.0, 1, RECEIVE, detail=(0, "hello")))
    tr.append(ev(1.0, 1, JUMP, detail=0.5))
    tr.append(ev(2.0, 0, TIMER, detail="tick"))
    return tr


class TestProjections:
    def test_len_and_iter(self):
        tr = sample_trace()
        assert len(tr) == 6
        assert len(list(tr)) == 6

    def test_for_node(self):
        tr = sample_trace()
        node1 = tr.for_node(1)
        assert [e.kind for e in node1] == [START, RECEIVE, JUMP]

    def test_of_kind(self):
        tr = sample_trace()
        assert len(tr.of_kind(SEND)) == 1
        assert len(tr.of_kind(SEND, RECEIVE)) == 2

    def test_until(self):
        tr = sample_trace()
        prefix = tr.until(1.0)
        assert len(prefix) == 5
        assert all(e.real_time <= 1.0 for e in prefix)

    def test_local_observations_drop_real_time(self):
        tr = sample_trace()
        obs = tr.local_observations(1)
        # (kind, hardware, detail) triples
        assert obs[0] == (START, 0.0, None)
        assert obs[1] == (RECEIVE, 1.0, (0, "hello"))

    def test_message_records(self):
        tr = sample_trace()
        assert len(tr.message_records()) == 1


class TestColumnarTrace:
    def rows(self):
        return [
            (e.real_time, e.node, e.hardware, e.logical, e.kind, e.detail)
            for e in sample_trace()
        ]

    def test_equals_the_event_by_event_trace(self):
        columnar = ColumnarTrace(self.rows())
        assert len(columnar) == 6
        assert columnar == sample_trace()
        assert columnar.digest() == sample_trace().digest()

    def test_rows_are_released_once_events_exist(self):
        # A traced run is held once: the events replace the rows, and
        # __len__ / append keep working off the events.
        columnar = ColumnarTrace(self.rows())
        assert columnar._events is None
        events = columnar.events
        assert columnar._rows is None
        assert len(columnar) == 6
        columnar.append(ev(3.0, 1, TIMER, detail="tick"))
        assert len(columnar) == 7
        assert columnar.events is events and events[-1].real_time == 3.0
