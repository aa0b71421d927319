"""The discrete-event simulator: an executable form of the paper's model.

A :class:`Simulator` runs a set of :class:`~repro.sim.node.Process`
behaviors on a :class:`~repro.topology.base.Topology` under an adversary
schedule (per-node hardware rate schedules + a delay policy) for a fixed
real-time duration.  It is the only loop :func:`run_simulation` can run;
:mod:`repro.sim.reference` holds a deliberately naive second loop that
exists for tests to compare this one against.

Determinism contract
--------------------
Given identical (topology, processes, schedules, delay policy, fault
plan, seed, duration), two runs produce identical traces.  Consequently,
re-running under a *warped* schedule reproduces exactly the retimed
execution that the paper's indistinguishability arguments construct on
paper — this is the mechanism behind :mod:`repro.gcs.add_skew` and
:mod:`repro.gcs.lower_bound`.  An empty (or absent) fault plan builds no
fault machinery at all, so fault-free runs stay byte-identical to what
the simulator produced before faults existed; likewise a
:class:`~repro.topology.dynamic.DynamicTopology` with no change-points
schedules nothing and stays byte-identical to the plain static run.

How the loop is executed
------------------------
The model's semantics are one heap pop per event, one bisect per clock
read, one :class:`~repro.sim.trace.TraceEvent` per action — that is the
reference loop, statement for statement.  Periodic-broadcast gossip makes
the workload highly regular (dense epochs of timer firings and
deliveries whose order is fully determined by ``(time, seq)``), and this
loop exploits that without changing a single observable:

* **sorted-run event queue** — a :class:`~repro.sim.events.BatchEventQueue`;
  pushes append ``(time, event)`` pairs to a pending batch, a
  batch due before the heads is sorted into a small secondary run
  (never into the large spine, until the run outgrows a quarter of
  it), and the drain loop advances the cursor of the earlier head.
  Nothing due after the horizon ``duration + TIME_EPS`` is queued: it
  could never pop, so a delivery, timer or fault instant past it is
  dropped at push (a message is still recorded, and no RNG draw moves);
* **cursor clocks** — the simulation clock ``now`` is nondecreasing, so
  piecewise schedules are evaluated by *walking* a segment cursor
  instead of bisecting from scratch; the per-segment arithmetic is the
  exact expression of ``value_at``/``read``, so every reading is bitwise
  identical;
* **batched broadcast delivery** — every broadcast schedules its
  deliveries in one pass over ``(neighbor, distance, delay)`` triples
  cached per node and topology.  Policies that depend only on the pair
  distance (:class:`~repro.sim.messages.HalfDistanceDelay`,
  :class:`~repro.sim.messages.FixedFractionDelay`) declare a
  ``broadcast_delays`` hook, so their delays are validated once per
  topology; any other policy's delay is drawn inside the pass, one
  ``delay`` call per neighbor in neighbor order.  In a run with faults
  the pass also asks the fault controller, per neighbor, for the
  send's copies (lost, redrawn or duplicated);
* **neighbor distance table** — ``api.distance(u)`` reads a per-node
  ``neighbor -> distance`` dict built with the broadcast triples, and
  falls back to the topology only for a non-neighbor;
* **columnar trace and message stores** — the hot loop appends plain
  tuples; :class:`~repro.sim.trace.ColumnarTrace` materializes once at
  the end, and the message rows are the execution's only copy: a
  :class:`~repro.sim.messages.MessageLog` wraps a row as a
  :class:`~repro.sim.messages.Message` only when it is read.

When a run ends, each node API's edge back to the loop is cut (the
loop holds the APIs), so a finished run holds no reference cycle and is
freed by reference counting, not by the cyclic collector.

Equivalence contract
--------------------
For every configuration this loop must produce the same execution as
the reference loop: identical trace digests, identical logical-clock
segments (hence bitwise-equal logical matrices), identical message
records, identical topology timelines and fault statistics.  This is
the same discipline as the empty-FaultPlan and static-DynamicTopology
invariants, enforced by the differential harness
(``tests/test_engine_equivalence.py`` and ``tests/_engine_helpers.py``)
across the full algorithm x topology x fault x mobility grid, plus
hypothesis-generated random scenarios.  All randomness flows through the
same RNG objects in the same draw order: a random delay policy and the
fault controller are each asked once per send, in neighbor order,
whether the send is batched or not, and node RNGs are untouched by the
batching.  Only :meth:`NodeAPI.send` takes the per-send path
(``send_message``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro._constants import DEFAULT_RHO, TIME_EPS
from repro.errors import SimulationError
from repro.sim.clock import HardwareClock, LogicalClock
from repro.sim.events import BatchEventQueue, CrashNode
from repro.sim.execution import Execution
from repro.sim.faults import FaultController, FaultPlan
from repro.sim.messages import (
    DelayPolicy,
    HalfDistanceDelay,
    Message,
    MessageLog,
    validate_delay,
)
from repro.sim.node import NodeAPI, Process, node_rng
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.trace import (
    CRASH,
    ColumnarTrace,
    ExecutionTrace,
    JUMP,
    RATE,
    RECEIVE,
    RECOVER,
    SEND,
    START,
    TIMER,
    TOPOLOGY,
)
from repro.topology.base import Topology
from repro.topology.dynamic import DynamicTopology

__all__ = ["SimConfig", "RunSetup", "Simulator", "run_simulation"]


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.

    Attributes
    ----------
    duration:
        Real-time length of the execution (``l(alpha)`` in the paper).
    rho:
        Hardware drift bound (Assumption 1).
    seed:
        Seed for all randomness (per-node RNGs and random delay policies).
    record_trace:
        Traces cost memory; long benign runs may disable them.
    """

    duration: float
    rho: float = DEFAULT_RHO
    seed: int = 0
    record_trace: bool = True


class RunSetup:
    """Everything about a run that is fixed before its first event.

    Validation, the hardware clocks, RNG seeding and the fault
    controller — the part of the constructor that :class:`Simulator`
    and the reference loop
    (:class:`repro.sim.reference.ReferenceSimulator`) must agree on to
    be comparable at all, so there is one copy of it.
    """

    def __init__(
        self,
        topology: Topology | DynamicTopology,
        processes: Mapping[int, Process],
        config: SimConfig,
        *,
        rate_schedules: Optional[Mapping[int, PiecewiseConstantRate]] = None,
        delay_policy: Optional[DelayPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        # A DynamicTopology with no change-points is free: nothing is
        # scheduled, and the run stays byte-identical to the same run on
        # the plain static topology (the mobility mirror of the empty
        # FaultPlan contract).
        if isinstance(topology, DynamicTopology):
            self._dynamic: Optional[DynamicTopology] = (
                None if topology.is_static() else topology
            )
            topology = topology.initial
        else:
            self._dynamic = None
        if set(processes) != set(topology.nodes):
            raise SimulationError("processes must cover exactly the topology's nodes")
        if not (math.isfinite(config.duration) and config.duration > 0):
            # NaN fails every comparison, so ``duration <= 0`` lets it
            # through and the run loop's ``time > limit`` never ends it.
            raise SimulationError(
                f"duration must be positive and finite, got {config.duration}"
            )
        self.topology = topology
        self._topology_timeline: list[tuple[float, Topology]] = [(0.0, topology)]
        self.config = config
        self.delay_policy: DelayPolicy = delay_policy or HalfDistanceDelay()
        self._processes = dict(processes)
        #: One node API per node, filled by the loop's constructor.
        self._api: dict[int, NodeAPI] = {}
        self._msg_counter = 0
        self.now = 0.0
        self._finished = False
        self._delay_rng = random.Random(config.seed ^ 0x5EED)

        schedules = dict(rate_schedules or {})
        self._hardware: dict[int, HardwareClock] = {
            node: HardwareClock(
                schedules.get(node, PiecewiseConstantRate.constant(1.0)), config.rho
            )
            for node in topology.nodes
        }

        # The empty plan builds no controller at all, keeping fault-free
        # runs byte-identical to a simulator without fault support.
        self._faults: Optional[FaultController] = (
            None
            if fault_plan is None or fault_plan.is_empty()
            else FaultController(fault_plan, topology, config.seed)
        )

    def _node_rng(self, node: int) -> random.Random:
        """The node-local RNG algorithms see as ``api.rng``, made now
        (the production loop hands its APIs the seed instead, and each
        makes this same RNG on first use)."""
        return node_rng(self.config.seed, node)

    def _begin(self) -> None:
        if self._finished:
            raise SimulationError("a Simulator instance runs exactly once")
        self._finished = True

    def _execution(
        self,
        logical: Mapping[int, LogicalClock],
        trace: ExecutionTrace,
        messages: Sequence[Message],
    ) -> Execution:
        # Execution.topology is the t = 0 network; dynamic runs also
        # carry the full (time, topology) timeline so measurements can
        # evaluate distance-dependent quantities against the network
        # that was actually live at each instant.
        self.now = self.config.duration
        # The loop holds its node APIs and each API points back at the
        # loop: cut that edge, so the finished run holds no reference
        # cycle and is freed by reference counting the moment nothing
        # refers to the loop, not by a later cyclic collection.
        for api in self._api.values():
            api._sim = None
        return Execution(
            topology=self._topology_timeline[0][1],
            duration=self.config.duration,
            rho=self.config.rho,
            hardware=dict(self._hardware),
            logical=dict(logical),
            trace=trace,
            messages=messages,
            fault_stats=None if self._faults is None else dict(self._faults.stats),
            topology_timeline=(
                None if self._dynamic is None else tuple(self._topology_timeline)
            ),
        )


#: Event kind codes inside the queue.  The two hot kinds are encoded as
#: bare ints instead of ``(KIND, ...fields)`` tuples: a delivery is its
#: message-store index (``>= 0``), a fault-free default-named timer is
#: ``-1 - node``.  Tuples are reserved for named or fault-epoch timers
#: and the rare control kinds below.
_TIMER = 1
_CRASH = 2
_RECOVER = 3
_TOPOLOGY = 4

#: Sentinel marking a node API's cached neighborhood (broadcast triples
#: and distance table) as needing a rebuild.
_STALE = object()


class _ScheduleCursor:
    """Exact-walking evaluator for one piecewise-constant rate schedule.

    ``value`` and ``invert`` compute the *same float expressions* as
    :meth:`PiecewiseConstantRate.value_at` / ``invert`` — only the
    segment lookup differs: instead of bisecting on every call, the
    cursor walks from its last position (simulation time only moves
    forward, and timer targets only move a few segments ahead), which
    is O(1) amortized.  The bidirectional walk lands on exactly the
    segment ``bisect_right`` would pick, so readings are bitwise equal
    to the bisecting path.
    """

    __slots__ = ("starts", "rates", "cumulative", "n", "k", "_last_t", "_last_h")

    def __init__(self, schedule):
        self.starts = schedule.starts
        self.rates = schedule.rates
        self.cumulative = schedule._cumulative
        self.n = len(schedule.starts)
        self.k = 0
        # One-entry memo: handling a single event reads H(now) several
        # times (logical read, jump record, timer rescheduling), all at
        # the same t.  The schedule never changes mid-run, so caching a
        # pure function's last result is exact.
        self._last_t = float("nan")
        self._last_h = 0.0

    def value(self, t: float) -> float:
        """``H(t)`` — identical to ``schedule.value_at(t)``."""
        if t == self._last_t:
            return self._last_h
        k, starts, n = self.k, self.starts, self.n
        while k + 1 < n and t >= starts[k + 1]:
            k += 1
        while k > 0 and t < starts[k]:
            k -= 1
        self.k = k
        h = self.cumulative[k] + (t - starts[k]) * self.rates[k]
        self._last_t = t
        self._last_h = h
        return h

    def invert(self, value: float) -> float:
        """The real time at which ``H(t) == value`` — identical to
        ``schedule.invert(value)``."""
        k, cumulative, n = self.k, self.cumulative, self.n
        while k + 1 < n and value >= cumulative[k + 1]:
            k += 1
        while k > 0 and value < cumulative[k]:
            k -= 1
        self.k = k
        return self.starts[k] + (value - cumulative[k]) / self.rates[k]


class _CursorLogicalClock(LogicalClock):
    """A :class:`LogicalClock` whose live ``read`` uses a schedule cursor.

    The inherited ``read(t)`` recomputes the hardware reading at the
    current segment's start on every call; here that reading is cached
    when a segment is appended (it is a pure function of the segment
    start, so the cache is exact) and the hardware reading at ``t``
    comes from the cursor.  The returned value is the identical float
    expression — ``value + mult * (H(t) - H(t_seg))`` — so jumps,
    multiplier changes, and every recorded trace value are bitwise equal
    to the reference loop's.  Post-hoc analysis (``value_at`` /
    ``values_at``) is inherited unchanged.
    """

    def __init__(self, hardware, cursor: _ScheduleCursor, initial_value: float = 0.0):
        super().__init__(hardware, initial_value)
        self._cursor = cursor
        self._h_seg = cursor.value(self._times[-1])

    def read(self, t: float) -> float:
        return self._values[-1] + self._mults[-1] * (
            self._cursor.value(t) - self._h_seg
        )

    def _append_segment(self, t: float, value: float, mult: float) -> None:
        super()._append_segment(t, value, mult)
        self._h_seg = self._cursor.value(self._times[-1])


class _SimNodeAPI(NodeAPI):
    """The standard :class:`NodeAPI` surface on :class:`Simulator` internals.

    Algorithms cannot tell the difference: every method returns the same
    values and records the same trace actions as the plain
    :class:`NodeAPI` does on the reference loop; only the evaluation
    strategy (cursor clocks, columnar trace rows, batched broadcast)
    changes.
    """

    def __init__(self, simulator, node, logical, rng):
        super().__init__(simulator, node, logical, rng)
        # Simulator internals with run-stable identity (the queue's
        # pending list is cleared in place on merge, never reassigned),
        # cached to keep the hottest per-event methods free of chained
        # lookups.
        queue = simulator._queue
        self._queue = queue
        self._pending = queue._pending
        self._horizon = queue._horizon
        self._faults = simulator._faults
        #: ``(neighbor, distance, delay)`` triples for the current
        #: topology (``delay`` validated, or ``None`` when each send
        #: draws its own), or ``_STALE`` until (re)built — the simulator
        #: marks every API stale on a topology swap.
        self._pairs: Any = _STALE
        #: ``neighbor -> distance`` on the current topology, built and
        #: invalidated together with ``_pairs``.
        self._distances: dict[int, float] = {}
        #: Int encoding for this node's fault-free default-named timer.
        self._tick_event = -1 - node

    def _neighborhood(self) -> list[tuple[int, float, float | None]]:
        """(Re)build the broadcast triples and the distance table."""
        pairs = self._pairs = self._sim._broadcast_pairs(self.node)
        self._distances = {dest: distance for dest, distance, _ in pairs}
        return pairs

    def distance(self, other: int) -> float:
        if self._pairs is _STALE:
            self._neighborhood()
        distance = self._distances.get(other)
        if distance is None:
            # Not a neighbor now — e.g. a sender whose message was in
            # flight across a rewiring.
            return self._sim.topology.distance(self.node, other)
        return distance

    def hardware_now(self) -> float:
        return self._logical._cursor.value(self._sim.now)

    def jump_logical_to(self, target: float) -> float:
        amount = self._logical.jump_to(self._sim.now, target)
        if amount > 0.0:
            self._sim._record(self.node, JUMP, round(amount, 9))
        return amount

    def set_logical_multiplier(self, multiplier: float) -> None:
        lc = self._logical
        if abs(multiplier - lc.multiplier) <= 1e-12:
            return
        lc.set_multiplier(self._sim.now, multiplier)
        self._sim._record(self.node, RATE, round(multiplier, 9))

    def broadcast(self, payload: Any) -> None:
        """One gossip broadcast: every neighbor, batch-scheduled.

        Every broadcast takes this one loop, whatever the delay policy
        and fault plan: a delay the policy's ``broadcast_delays`` hook
        fixed is read from the cached triples, any other is drawn here
        with ``policy.delay`` in neighbor order — the reference loop's
        per-send draw order, so the RNG stream is identical.  In a run
        with faults each send's delay then goes through the fault
        controller (its own RNG, also in neighbor order), which may
        lose it or add a copy; every copy is validated, as
        ``send_message`` does.  The sender's clock readings are
        computed once for the whole broadcast: the reference loop's
        per-send reads are pure, so each would return the same floats.
        """
        sim = self._sim
        node = self.node
        faults = self._faults
        if faults is not None and faults.node_down(node):
            # Crashed nodes emit nothing.  Callbacks are already
            # suppressed, so this only catches misbehaving wrappers.
            return
        pairs = self._pairs
        if pairs is _STALE:
            pairs = self._neighborhood()
        now = sim.now
        draw = sim.delay_policy.delay
        rng = sim._delay_rng
        rows = sim._rows
        if rows is not None:
            lc = self._logical
            hw = lc._cursor.value(now)
            logical = lc.read(now)
        msgs = sim._msgs
        idx = len(msgs)
        seq = sim._msg_counter
        # Straight onto the queue's pending batch as ``(time, event)``
        # entries: the delivery time is ``now + delay`` with
        # ``delay >= 0``, so the not-in-the-popped-past guard ``push``
        # would run cannot fire.  A copy due after the horizon is
        # recorded but never queued (``push``'s rule).
        pending = self._pending
        queue = self._queue
        horizon = self._horizon
        pend_min = queue._pend_min
        for dest, distance, delay in pairs:
            if delay is None:
                delay = validate_delay(
                    draw(node, dest, now, distance, seq, rng), distance
                )
            if rows is not None:
                rows.append((now, node, hw, logical, SEND, (dest, payload)))
            if faults is None:
                copies: Any = (delay,)
            else:
                # Link faults may lose the send, redraw its delay or add
                # a copy.  Copies share the send's seq: the network
                # duplicated one message.
                copies = [
                    validate_delay(copy, distance)
                    for copy in faults.outbound_delays(node, dest, now, distance, delay)
                ]
            for copy in copies:
                at = now + copy
                if at <= horizon:
                    pending.append((at, idx))
                    if at < pend_min:
                        pend_min = at
                msgs.append((seq, node, dest, payload, now, copy))
                idx += 1
            seq += 1
        queue._pend_min = pend_min
        sim._msg_counter = seq

    def set_timer(self, delta_hardware: float, name: str = "tick") -> None:
        # The cursor replaces the ``time_at(value_at(now) + delta)``
        # bisects, and the event goes straight onto the queue's pending
        # batch (``fire_at >= now``, so the push guard cannot fire) —
        # unless it is due after the horizon (``push``'s rule).
        if not delta_hardware > 0:
            raise SimulationError(
                f"timer delta must be positive, got {delta_hardware}"
            )
        cursor = self._logical._cursor
        fire_at = cursor.invert(cursor.value(self._sim.now) + delta_hardware)
        faults = self._faults
        if faults is None:
            sim = self._sim
            fast = sim._fast_timer_name
            if fast is None:
                sim._fast_timer_name = fast = name
            if name == fast:
                event: Any = self._tick_event
            else:
                event = (_TIMER, self.node, name, 0)
        else:
            event = (_TIMER, self.node, name, faults.epoch(self.node))
        if fire_at <= self._horizon:
            self._pending.append((fire_at, event))
            queue = self._queue
            if fire_at < queue._pend_min:
                queue._pend_min = fire_at


class Simulator(RunSetup):
    """One execution of algorithm processes under an adversary schedule."""

    def __init__(
        self,
        topology: Topology | DynamicTopology,
        processes: Mapping[int, Process],
        config: SimConfig,
        *,
        rate_schedules: Optional[Mapping[int, PiecewiseConstantRate]] = None,
        delay_policy: Optional[DelayPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        super().__init__(
            topology,
            processes,
            config,
            rate_schedules=rate_schedules,
            delay_policy=delay_policy,
            fault_plan=fault_plan,
        )
        self._queue = BatchEventQueue(config.duration + TIME_EPS)
        #: The one timer name that gets the bare-int fast encoding in
        #: fault-free runs (periodic algorithms use a single name for
        #: their gossip tick); interned from the first timer set.
        self._fast_timer_name: str | None = None
        #: Columnar trace rows (``None`` when traces are disabled — then
        #: the loop also skips the clock reads the rows would record).
        self._rows: list[tuple] | None = [] if config.record_trace else None
        #: Columnar message store, one
        #: ``(seq, sender, receiver, payload, send_time, delay)`` row
        #: per network copy: the execution's :class:`MessageLog` reads
        #: these rows as ``Message`` records.
        self._msgs: list[tuple] = []

        self._logical: dict[int, _CursorLogicalClock] = {}
        for node in self.topology.nodes:
            hw = self._hardware[node]
            lc = _CursorLogicalClock(hw, _ScheduleCursor(hw.schedule))
            self._logical[node] = lc
            self._api[node] = _SimNodeAPI(self, node, lc, config.seed)

    # ------------------------------------------------------------------
    # services used by the node API

    def _record(self, node: int, kind: str, detail: Any) -> None:
        if self._rows is not None:
            lc = self._logical[node]
            now = self.now
            self._rows.append(
                (now, node, lc._cursor.value(now), lc.read(now), kind, detail)
            )

    def send_message(self, sender: int, receiver: int, payload: Any) -> None:
        """The per-send path of :meth:`NodeAPI.send` (broadcasts batch
        instead, in :meth:`_SimNodeAPI.broadcast`)."""
        if sender == receiver:
            raise SimulationError(f"node {sender} tried to message itself")
        faults = self._faults
        if faults is not None and faults.node_down(sender):
            # Crashed nodes emit nothing.  Callbacks are already
            # suppressed, so this only catches misbehaving wrappers.
            return
        distance = self.topology.distance(sender, receiver)
        raw = self.delay_policy.delay(
            sender, receiver, self.now, distance, self._msg_counter, self._delay_rng
        )
        seq = self._msg_counter
        self._msg_counter = seq + 1
        self._record(sender, SEND, (receiver, payload))
        delay = validate_delay(raw, distance)
        delays = [delay]
        if faults is not None:
            # Link faults may lose the message, redraw its delay
            # (reordering), or add a duplicate copy.  Copies share the
            # send's seq: the network duplicated one message.
            delays = faults.outbound_delays(
                sender, receiver, self.now, distance, delay
            )
        for chosen in delays:
            chosen = validate_delay(chosen, distance)
            self._queue.push(self.now + chosen, len(self._msgs))
            self._msgs.append((seq, sender, receiver, payload, self.now, chosen))

    def _broadcast_pairs(self, node: int) -> list[tuple[int, float, float | None]]:
        """One node's ``(neighbor, distance, delay)`` triples on the
        current topology — ``delay`` validated from the policy's
        ``broadcast_delays`` hook, or ``None`` without one."""
        neighbors = self.topology.neighbors(node)
        distances = [self.topology.distance(node, dest) for dest in neighbors]
        hook = getattr(self.delay_policy, "broadcast_delays", None)
        if hook is None:
            delays: list = [None] * len(neighbors)
        else:
            raws = hook(node, neighbors, distances)
            delays = list(map(validate_delay, raws, distances))
        return list(zip(neighbors, distances, delays))

    # ------------------------------------------------------------------
    # the event loop

    def run(self) -> Execution:
        """Execute until ``config.duration`` and return the finished execution."""
        self._begin()
        queue = self._queue
        faults = self._faults

        if self._dynamic is not None:
            # Scheduled before everything else, so a swap at time t pops
            # ahead of same-instant deliveries, timers, and fault events:
            # all activity at t already runs on the new network.
            # (``push`` drops a change-point past the horizon.)
            for at, topology in self._dynamic.snapshots[1:]:
                queue.push(at, (_TOPOLOGY, topology))

        if faults is not None:
            # Scheduled before the node activity below (topology swaps
            # are earlier still), so crash/recovery events pop before
            # same-instant deliveries and timers.
            def push_fault(time: float, event) -> None:
                kind = _CRASH if isinstance(event, CrashNode) else _RECOVER
                queue.push(time, (kind, event.node))

            faults.schedule(push_fault)

        for node in self.topology.nodes:
            self._record(node, START, None)
        for node in self.topology.nodes:
            if faults is not None and faults.node_down(node):
                continue  # crashed at time 0: never starts
            self._processes[node].on_start(self._api[node])

        # The drain loop — ``BatchEventQueue.pop_due`` unrolled against
        # the queue's internals, with the two hot event kinds
        # (deliveries and timer firings) handled inline: the per-event
        # method-call and TraceEvent overhead is exactly what this loop
        # exists to remove.  Rare kinds dispatch to ``_control``.
        # Nothing due after the horizon is ever queued, so the horizon
        # test below ends the drain only once every run is exhausted
        # (the head is the ``inf`` sentinel) and nothing is pending.
        limit = queue._horizon
        rows = self._rows
        record = self._record
        processes = self._processes
        apis = self._api
        msgs = self._msgs
        # Local drain state.  ``_merge`` changes the lists in place, so
        # the bindings survive merges; the cursors live in ``k`` / ``j``
        # and are written back around each merge and at exit (no other
        # queue entry point runs during the drain — pushes only append
        # to the pending batch).  Both runs end with an ``inf`` sentinel,
        # so a head read needs no bounds check and an exhausted run never
        # wins; with both exhausted, ``time`` is ``inf`` and any pending
        # entry forces a merge.  Ties go to the spine (every run entry is
        # newer), as in ``pop_due``.
        pending = queue._pending
        spine = queue._spine
        run = queue._run
        k = queue._cursor
        j = queue._run_cursor
        while True:
            head = spine[k]
            time = head[0]
            other = run[j]
            if other[0] < time:
                head = other
                time = other[0]
            if pending and queue._pend_min < time:
                queue._cursor = k
                queue._run_cursor = j
                queue._merge()
                k = queue._cursor
                j = queue._run_cursor
                continue
            if time > limit:
                break
            if head is other:
                j += 1
            else:
                k += 1
            event = head[1]
            self.now = time
            if type(event) is int:
                if event >= 0:
                    msg = msgs[event]
                    receiver = msg[2]
                    if faults is not None and faults.delivery_suppressed_fields(
                        msg[1], receiver, msg[4], time
                    ):
                        continue
                    if rows is not None:
                        record(receiver, RECEIVE, (msg[1], msg[3]))
                    processes[receiver].on_message(apis[receiver], msg[1], msg[3])
                else:
                    # Only scheduled when no fault controller exists, so
                    # there is no cancellation check to run.  The name is
                    # read lazily: the first ``set_timer`` call interns
                    # it, which can happen after the drain starts.
                    node = -1 - event
                    name = self._fast_timer_name
                    if rows is not None:
                        record(node, TIMER, name)
                    processes[node].on_timer(apis[node], name)
            elif event[0] == _TIMER:
                node = event[1]
                if faults is not None and faults.timer_cancelled(node, event[3]):
                    continue
                if rows is not None:
                    record(node, TIMER, event[2])
                processes[node].on_timer(apis[node], event[2])
            else:
                self._control(event)
        queue._cursor = k
        queue._run_cursor = j
        queue._last_popped = self.now

        return self._execution(self._logical, ColumnarTrace(rows), MessageLog(msgs))

    def _control(self, event: tuple) -> None:
        """The rare event kinds: crash, recovery, topology swap."""
        kind = event[0]
        if kind == _CRASH:
            self._faults.on_crash(event[1])
            self._record(event[1], CRASH, None)
        elif kind == _RECOVER:
            node = event[1]
            self._faults.on_recover(node)
            self._record(node, RECOVER, None)
            self._processes[node].on_recover(self._api[node])
        elif kind == _TOPOLOGY:
            # Everything routed through ``self.topology`` — neighbor
            # lists, distances, delay validation — sees the new network
            # from this instant on.  Messages already in flight keep
            # their assigned delays (validated against the distance at
            # *send* time; see :meth:`Execution.check_delay_bounds`).
            # The change is recorded with ``node = -1``: it is the
            # adversary's action, invisible to every node's local
            # projection.
            topology = event[1]
            self.topology = topology
            self._topology_timeline.append((self.now, topology))
            for api in self._api.values():
                api._pairs = _STALE
            if self._rows is not None:
                self._rows.append(
                    (self.now, -1, 0.0, 0.0, TOPOLOGY, topology.name)
                )
        else:  # pragma: no cover - queue only ever holds these kinds
            raise SimulationError(f"unknown event kind {kind!r}")


def run_simulation(
    topology: Topology | DynamicTopology,
    processes: Mapping[int, Process],
    config: SimConfig,
    *,
    rate_schedules: Optional[Mapping[int, PiecewiseConstantRate]] = None,
    delay_policy: Optional[DelayPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Execution:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    sim = Simulator(
        topology,
        processes,
        config,
        rate_schedules=rate_schedules,
        delay_policy=delay_policy,
        fault_plan=fault_plan,
    )
    return sim.run()
