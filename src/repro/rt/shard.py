"""The live loop, and the multi-process runtime built from shards of it.

:class:`ShardTransport` is the one event loop of the live runtime: the
simulator's :class:`~repro.sim.events.BatchEventQueue` of due
deliveries, timers and churn events, driven by a clock (virtual or wall)
and fed by a carrier (its own queue, or a UDP socket).
:func:`host_shard` hosts a set of :class:`~repro.rt.node.LiveNode`
objects on it and runs them.  The in-process names are one such shard
holding every node (``virtual``: virtual clock; ``asyncio``: wall
clock), called straight from :func:`~repro.rt.run.run_live`; the rest of
this module is what the two multi-process names add.

There, ``n`` nodes are split round-robin into *shards*; each shard is
one forked worker process running :func:`host_shard` on a wall clock,
and every message is one :mod:`repro.wire` frame in one datagram::

    {"seq": …, "src": i, "dst": j, "payload": …, "send": t, "delay": d}

Payloads must be JSON-serializable; tuples survive the round trip
because the receiver restores lists to tuples (every algorithm in
:mod:`repro.algorithms` sends ``(tag, number)`` pairs).  Delays are
sender-drawn and carried on the wire; the receiving shard holds each
frame until its delivery instant.

The two multi-process names differ only in how nodes are sharded and
where a frame is sent (:func:`run_shards` works both out from
``config.transport``):

* ``router`` — a handful of shards (:func:`default_workers`), and every
  frame goes to one central *switch* socket owned by the parent, which
  forwards it to the owning shard.  This is the scale vehicle: hundreds
  to thousands of nodes on one machine.
* ``udp`` — one shard per node, and every frame goes straight to the
  owning peer's port: the deployment shape of a real sync client fleet,
  scaled down to one machine.  There is no switch; the parent owns a
  socket only when a streaming tail is attached, and senders then
  mirror their frames to it.

Division of labor under churn
-----------------------------
Every name runs fault plans and moving topologies, the same way:

* **the controller decides** — a loop whose cell has a
  :class:`~repro.sim.faults.FaultPlan` holds one
  :class:`~repro.sim.faults.FaultController`, the simulator's, and asks
  it what the simulator asks: which copies of a send survive the link
  (sender-side, so lost copies are never on the wire or in the message
  record), whether a delivery dies with a crash, whether a timer was
  cancelled by one.  The controller keeps the counters.
* **the loop dispatches** — crash, recovery and rewiring instants are
  queue events, ordered by the simulator's queue; the loop records
  the CRASH / RECOVER / TOPOLOGY trace events, invokes ``on_recover``
  and swaps its nodes onto the new snapshot.  Frames in flight across
  a rewiring finish, as in the simulator.
* **the switch forwards** — it checks that a frame is well formed and
  that its ends exist, feeds the tail, and passes it on.

Each shard's controller counters are summed into
``Execution.fault_stats`` (``virtual`` reports the simulator's, to the
count); wire-level drop counts and events/sec inputs land in
``Execution.live_stats`` (one key set for all four names; both written
by :func:`~repro.rt.recorder.build_execution`).

Timebase and failure handling
-----------------------------
The parent waits for every shard to report ready (the barrier absorbs
fork + construction lag, however large n gets), then picks one
CLOCK_MONOTONIC epoch a short grace ahead (:data:`_START_GRACE`, which
covers only pipe latency and waking every shard) and ships it to every
shard; ``time.monotonic()`` is system-wide on Linux, so all shards agree
on "simulation time 0" to scheduler precision.  A shard that still
misses the epoch reports the fact; ``live_stats["missed_epochs"]``
counts such shards and ``run_live`` warns.  After the run, shards
ship their :func:`host_shard` reports (recorder, logical clocks,
counters) home over pipes and ``run_live`` assembles one
:class:`~repro.sim.execution.Execution` from them.  A shard process
that dies or closes its pipe without reporting raises a prompt
:class:`RtError` naming it (:func:`collect_reports`).

Requires the ``fork`` start method (sockets are inherited, nothing else
is portable-pickled); :func:`run_shards` raises :class:`RtError` where
fork is unavailable.
"""

from __future__ import annotations

import functools
import gc
import math
import multiprocessing
import random
import select
import socket
import time
import traceback
import warnings
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional

from repro._constants import TIME_EPS
from repro.errors import RtError
from repro.rt.node import LiveNode, host_nodes
from repro.rt.recorder import LiveRecorder
from repro.rt.transport import DELAY_SEED_MIX, TRANSPORT_SHAPES
from repro.sim.events import (
    BatchEventQueue,
    CrashNode,
    DeliverMessage,
    FireTimer,
    RecoverNode,
    TopologyChange,
)
from repro.sim.faults import FaultController, FaultPlan
from repro.sim.messages import (
    DelayPolicy,
    HalfDistanceDelay,
    Message,
    validate_delay,
)
from repro.sim.trace import TOPOLOGY, TraceEvent
from repro.sweep.pool import usable_cpus
from repro.topology.base import Topology
from repro.topology.dynamic import DynamicTopology
from repro.wire import decode_frame, encode_frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rt.run import LiveRunConfig
    from repro.sweep.scenario import Cell

__all__ = ["ShardTransport", "host_shard", "run_shards", "default_workers"]

#: Wall seconds between the ready barrier and the shared start epoch.
#: Every shard has already built its nodes and is blocked on its pipe by
#: the time the parent publishes the epoch, so this covers only pipe
#: latency plus waking every shard — not fork + construction lag, which
#: the barrier absorbs.  A shard that wakes late anyway is counted in
#: ``live_stats["missed_epochs"]`` and warned about.
_START_GRACE = 0.02

#: Base wall seconds the parent grants shards to build themselves and
#: report ready; scaled up with node count.
_READY_GRACE = 10.0

#: Extra wall seconds the parent waits for shards past the horizon.
_REPORT_GRACE = 10.0


def default_workers(n: int) -> int:
    """Auto shard count for ``router``: one per ~16 nodes, capped by cores.

    Small runs stay in one worker (no multiplexing overhead); large runs
    fan out to at most ``min(cores, 8)`` workers, each hosting a shard,
    where ``cores`` counts the CPUs this process may run on.
    """
    return max(1, min(usable_cpus(), 8, (n + 15) // 16))


def _decode_message(datagram: bytes) -> Optional[dict]:
    """One message frame, or ``None`` unless it decodes to the record
    :meth:`ShardTransport._carry_wire` sends: integer ends, a finite send
    time, a finite delay ``>= 0``, a payload.  Every receiving site
    checks this once, so a stray or forged datagram is dropped and
    counted, never a crash, a NaN queue time or a delivery outside the
    model's delay band."""
    record = decode_frame(datagram)
    if (
        isinstance(record, dict)
        and "payload" in record
        and isinstance(record.get("src"), int)
        and isinstance(record.get("dst"), int)
        and isinstance(record.get("send"), (int, float))
        and isinstance(record.get("delay"), (int, float))
        and math.isfinite(record["send"])
        and math.isfinite(record["delay"])
        and record["delay"] >= 0
    ):
        return record
    return None


class _GcPauses:
    """A ``gc.callbacks`` entry that counts collections and sums their
    wall pause (it holds nothing of the loop it watches)."""

    __slots__ = ("collections", "pause", "_began")

    def __init__(self) -> None:
        self.collections = 0
        self.pause = 0.0
        self._began = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        else:
            self.collections += 1
            self.pause += time.perf_counter() - self._began


def _untuple(value):
    """Restore JSON lists to tuples (payloads are tuple-shaped)."""
    if isinstance(value, list):
        return tuple(_untuple(v) for v in value)
    return value


class ShardTransport:
    """The one live loop: time, messages and timers for the nodes it hosts.

    Its queue is the simulator's :class:`~repro.sim.events.BatchEventQueue`
    holding the simulator's events: a :class:`DeliverMessage` carries its
    :class:`Message`, a :class:`FireTimer` the crash epoch it was set in,
    and rewiring / crash / recovery instants are :class:`TopologyChange`,
    :class:`CrashNode` and :class:`RecoverNode` events pushed in that
    order before anything else, so they dispatch before same-instant
    deliveries or timers.  Nothing due past the horizon is queued.  What
    a fault plan means is the :class:`~repro.sim.faults.FaultController`'s
    business: the loop holds one when the cell has a plan, and none
    otherwise.

    Two seams are fixed at construction (each use branches on
    ``time_scale`` or ``sock``: the loop stores no bound method of
    itself, so a finished run holds no reference cycle):

    * the **clock** — ``time_scale=None`` is *virtual* time: the queue
      drains as the simulator's does — "now" jumps to each popped event,
      nothing sleeps — and its horizon is ``duration + TIME_EPS``.  A
      number is *wall* time: ``time_scale`` wall seconds per simulation
      unit, measured from a CLOCK_MONOTONIC epoch, slept out in
      ``select``, with ``duration`` as the horizon;
    * the **carrier** — ``sock=None`` is *local*: a sent message goes
      straight onto this loop's own queue (the loop hosts every node).
      A socket is the *wire*: one :mod:`repro.wire` frame per message to
      ``route[receiver]`` (the switch for ``router``, the owning peer
      for ``udp``), plus a copy to ``mirror`` when a streaming tail
      watches a run whose traffic never crosses the parent.
    """

    def __init__(
        self,
        *,
        recorder: LiveRecorder,
        delay_policy: Optional[DelayPolicy],
        seed: int,
        duration: float,
        time_scale: Optional[float],
        shard: int = 0,
        n_shards: int = 1,
        sock: Optional[socket.socket] = None,
        route: Optional[Mapping[int, tuple]] = None,
        mirror: Optional[tuple] = None,
        topology: Optional[Topology] = None,
        plan: Optional[FaultPlan] = None,
        dynamic: Optional[DynamicTopology] = None,
    ):
        self._shard = shard
        self._n_shards = n_shards
        self._sock = sock
        self._route = route
        self._mirror = mirror
        self._recorder = recorder
        self.delay_policy: DelayPolicy = delay_policy or HalfDistanceDelay()
        # The simulator's own delay and fault streams when the loop
        # hosts every node (so ``virtual`` draws the very same delays
        # and losses); shards share no RNG, so each mixes its index in.
        mixed = seed ^ DELAY_SEED_MIX
        self._delay_rng = random.Random(
            mixed if sock is None else mixed * 0x9E37 + shard
        )
        #: The plan's one executor — ``None`` on a fault-free cell, which
        #: then pays one ``is not None`` test per event.  Every shard
        #: knows every node's crash window (the in-flight check asks
        #: about remote senders) but runs only its own nodes' events.
        self.faults: Optional[FaultController] = (
            None if plan is None
            else FaultController(
                plan, topology, seed if sock is None else seed * 0x9E37 + shard
            )
        )
        self._msg_counter = 0
        self._duration = duration
        self._time_scale = time_scale
        self._dynamic = dynamic
        self._epoch_wall = 0.0
        self._now = 0.0
        self._started = False
        #: Deliveries, timers and churn, up to the horizon: the
        #: simulator's (events due exactly at it still run on virtual
        #: time); on a wall clock, measured time stops at ``duration``.
        self._queue = BatchEventQueue(
            duration + TIME_EPS if time_scale is None else duration
        )
        self._nodes: dict[int, LiveNode] = {}
        #: Malformed or misdirected datagrams dropped at the wire.
        self.frames_dropped = 0
        #: Callback events dispatched (deliveries + timer firings).
        self.events_processed = 0
        #: Wall-clock observations of how the run was served, for a
        #: starved run to say why (never part of a result): the wall
        #: seconds past the epoch at which the run began, the longest
        #: wall gap between two iterations of the wall-clock loop and
        #: the simulation time at which it began (zero on a virtual
        #: clock, which waits for nothing), and the garbage collections
        #: during the run with their total pause.
        self.stall = {
            "epoch_lag_s": 0.0, "loop_gap_s": 0.0, "loop_gap_at": 0.0,
            "gc_collections": 0, "gc_pause_s": 0.0,
        }

    # ------------------------------------------------------------------
    # the clock seam

    def now(self) -> float:
        """The current real time in simulation units.

        Frozen for the duration of one node callback, so algorithm code
        observes a single consistent instant per activation (the
        simulator's instantaneous-computation semantics).
        """
        return self._now

    # ------------------------------------------------------------------
    # the send protocol and the carrier seam

    def _next_messages(
        self, sender: LiveNode, receiver: int, payload
    ) -> list[Message]:
        """Draw one injected model-band delay and record what survives.

        One message on a reliable link; under a fault plan the
        controller decides, here at the sender as in the simulator,
        which copies the link carries — none (lost), one (possibly with
        a redrawn delay) or two (duplicated, sharing the send's seq) —
        so only those reach the wire and the message record.  The seq is
        run-unique without cross-shard coordination, for any run length:
        the counter is unique within the shard, and shards own disjoint
        residues mod the shard count.
        """
        now = self._now
        distance = sender.topology.distance(sender.node, receiver)
        raw = self.delay_policy.delay(
            sender.node, receiver, now, distance, self._msg_counter, self._delay_rng
        )
        seq = self._msg_counter * self._n_shards + self._shard
        self._msg_counter += 1
        delay = validate_delay(raw, distance)
        delays = [delay]
        if self.faults is not None:
            delays = [
                validate_delay(chosen, distance)
                for chosen in self.faults.outbound_delays(
                    sender.node, receiver, now, distance, delay
                )
            ]
        copies = [
            Message(seq, sender.node, receiver, payload, now, delay)
            for delay in delays
        ]
        self._recorder.messages.extend(copies)
        return copies

    def transmit(self, sender: LiveNode, receiver: int, payload) -> None:
        """Carry ``payload`` to ``receiver`` under an injected model delay,
        on this loop's carrier."""
        if self._sock is None:
            self._carry_local(sender, receiver, payload)
        else:
            self._carry_wire(sender, receiver, payload)

    def _carry_local(self, sender: LiveNode, receiver: int, payload) -> None:
        for message in self._next_messages(sender, receiver, payload):
            self._queue.push(message.receive_time, DeliverMessage(receiver, message))

    def _carry_wire(self, sender: LiveNode, receiver: int, payload) -> None:
        for message in self._next_messages(sender, receiver, payload):
            frame = encode_frame(
                {
                    "seq": message.seq,
                    "src": message.sender,
                    "dst": message.receiver,
                    "payload": message.payload,
                    "send": message.send_time,
                    "delay": message.delay,
                }
            )
            self._sock.sendto(frame, self._route[receiver])
            if self._mirror is not None:
                self._sock.sendto(frame, self._mirror)

    def schedule_timer(self, node: LiveNode, fire_at: float, name: str) -> None:
        """Arrange ``on_timer(name)`` at simulation time ``fire_at``."""
        epoch = 0 if self.faults is None else self.faults.epoch(node.node)
        self._queue.push(fire_at, FireTimer(node.node, name, 0, epoch))

    def _push_fault(self, due: float, event) -> None:
        """The controller's ``schedule`` sink: this shard's nodes only."""
        if event.node in self._nodes:
            self._queue.push(due, event)

    # ------------------------------------------------------------------
    # the event loop

    def run(self, nodes: Mapping[int, LiveNode], epoch: float | None = None) -> None:
        """Start every node and drive the run to its horizon.

        ``epoch`` is the CLOCK_MONOTONIC instant that is simulation time
        0 on a wall clock (shards are handed one shared epoch; default:
        now).
        """
        if self._started:
            raise RtError("a ShardTransport instance runs exactly once")
        self._started = True
        began = time.monotonic()
        self._epoch_wall = began if epoch is None else epoch
        stall = self.stall
        if self._time_scale is not None:
            stall["epoch_lag_s"] = max(0.0, began - self._epoch_wall)
        pauses = _GcPauses()
        gc.callbacks.append(pauses)
        try:
            self._run(nodes)
        finally:
            gc.callbacks.remove(pauses)
        stall["gc_collections"] = pauses.collections
        stall["gc_pause_s"] = pauses.pause

    def _run(self, nodes: Mapping[int, LiveNode]) -> None:
        """:meth:`run`'s body: open the nodes, then loop to the horizon."""
        duration = self._duration
        self._nodes = dict(nodes)
        faults = self.faults
        queue = self._queue
        # The simulator's opening order: rewirings onto the queue first
        # (``push`` drops one past the horizon), then crash / recovery
        # instants (a crash at time 0 is an event like any other; the
        # controller already has the node down), then every START before
        # any ``on_start``, in node order.
        if self._dynamic is not None:
            for at, snapshot in self._dynamic.snapshots[1:]:
                queue.push(at, TopologyChange(snapshot))
        if faults is not None:
            faults.schedule(self._push_fault)
        for node in sorted(self._nodes):
            self._nodes[node].record_start()
        for node in sorted(self._nodes):
            if faults is None or not faults.node_down(node):
                self._nodes[node].begin()
        if self._time_scale is None:
            # Virtual time waits for nothing: the simulator's drain, with
            # "now" at each popped event, until the queue (which holds
            # nothing past the horizon) runs dry.
            while (item := queue.pop_due(math.inf)) is not None:
                self._now, event = item
                self._dispatch(event)
        else:
            socks = [] if self._sock is None else [self._sock]
            stall = self.stall
            last = time.monotonic()
            while True:
                tick = time.monotonic()
                if tick - last > stall["loop_gap_s"]:
                    stall["loop_gap_s"] = tick - last
                    stall["loop_gap_at"] = (
                        (last - self._epoch_wall) / self._time_scale
                    )
                last = tick
                elapsed = (tick - self._epoch_wall) / self._time_scale
                if elapsed >= duration:
                    break
                item = queue.pop_due(elapsed)
                if item is not None:
                    # The callback's instant is measured time (>= due when
                    # the OS woke us late): monotone, inside the run.
                    self._now = max(self._now, elapsed)
                    self._dispatch(item[1])
                    continue
                # Nothing due yet: sleep until the head is, or a frame lands.
                due = queue.peek_time()
                due = duration if due is None else min(due, duration)
                readable, _, _ = select.select(
                    socks, [], [], (due - elapsed) * self._time_scale
                )
                if readable:
                    self._drain_socket()
        self._now = duration
        # Cut every hosted node's edges back into the loop, so the
        # finished run holds no reference cycle (see ``LiveNode.detach``).
        for live in self._nodes.values():
            live.detach()

    def _drain_socket(self) -> None:
        while True:
            try:
                datagram, _ = self._sock.recvfrom(65536)
            except BlockingIOError:
                return
            record = _decode_message(datagram)
            if record is None or record["dst"] not in self._nodes:
                self.frames_dropped += 1
                continue
            message = Message(
                record.get("seq"), record["src"], record["dst"],
                _untuple(record["payload"]), float(record["send"]),
                float(record["delay"]),
            )
            # A frame due before an instant already dispatched is late:
            # it is delivered now, as any frame the OS woke us late for.
            self._queue.push(
                max(message.receive_time, self._now),
                DeliverMessage(message.receiver, message),
            )

    def _dispatch(self, event) -> None:
        """Run one popped event at ``self._now``."""
        faults = self.faults
        kind = type(event)
        if kind is DeliverMessage:
            message = event.message
            if faults is not None and faults.delivery_suppressed(message, self._now):
                return
            self.events_processed += 1
            self._nodes[event.node].deliver(message.sender, message.payload)
        elif kind is FireTimer:
            if faults is not None and faults.timer_cancelled(event.node, event.epoch):
                return
            self.events_processed += 1
            self._nodes[event.node].fire_timer(event.name)
        elif kind is CrashNode:
            faults.on_crash(event.node)
            self._nodes[event.node].mark_crash()
        elif kind is RecoverNode:
            faults.on_recover(event.node)
            self._nodes[event.node].recover()
        else:
            # A TopologyChange: every hosted node sees the new network
            # from this instant; frames already in flight keep their
            # delays.  Recorded once per run (shard 0), with
            # ``node = -1``: the adversary's action, as the simulator
            # records it.
            snapshot = event.topology
            for live in self._nodes.values():
                live.topology = snapshot
            if self._shard == 0:
                self._recorder.record(
                    TraceEvent(self._now, -1, 0.0, 0.0, TOPOLOGY, snapshot.name)
                )


# ----------------------------------------------------------------------
# the parent-side switch (``router`` only)


class _RouterCore:
    """The frame switch: decode, check both ends exist, feed the tail, forward."""

    def __init__(
        self,
        *,
        sock: socket.socket,
        time_scale: float,
        owner: Mapping[int, int],
        ports: Mapping[int, int],
        tail=None,
    ):
        self._sock = sock
        self._time_scale = time_scale
        #: Optional streaming tail: sees every well-formed frame that
        #: crosses the switch, plus the wire counters as they stood when
        #: the frame arrived.
        self._tail = tail
        self._addrs = {
            node: ("127.0.0.1", ports[shard]) for node, shard in owner.items()
        }
        self._epoch_wall: float | None = None
        self.frames_routed = 0
        #: Malformed frames or frames for unknown destinations.
        self.frames_dropped = 0

    def bind_epoch(self, epoch_wall: float) -> None:
        self._epoch_wall = epoch_wall

    def counters(self) -> dict:
        """Wire counters for the streaming tail / live_stats."""
        return {
            "frames_routed": self.frames_routed,
            "frames_dropped": self.frames_dropped,
        }

    def handle(self, datagram: bytes) -> None:
        record = _decode_message(datagram)
        addr = None if record is None else self._addrs.get(record["dst"])
        if addr is None or record["src"] not in self._addrs:
            self.frames_dropped += 1
            return
        if self._tail is not None:
            now = (time.monotonic() - self._epoch_wall) / self._time_scale
            self._tail.frame(record, now)
            self._tail.stats(now, **self.counters())
        self._sock.sendto(datagram, addr)
        self.frames_routed += 1


# ----------------------------------------------------------------------
# orchestration: fork shards, ready barrier, epoch, collect, merge


def collect_reports(
    conns: Mapping,
    children: Mapping,
    deadline: float,
    *,
    what: str,
    role: str,
    sock: Optional[socket.socket] = None,
    on_datagram: Optional[Callable[[bytes], None]] = None,
) -> dict:
    """Receive one message from every pipe, failing fast on dead peers.

    ``conns`` and ``children`` map the same keys to pipe connections and
    child processes.  Each child's sentinel is watched alongside its
    pipe, so a process that dies without reporting raises a prompt,
    descriptive :class:`RtError` naming it (and its exit code) instead
    of blocking out the whole time budget.  EOF on a pipe — where
    ``poll()`` returns True but ``recv()`` raises ``EOFError`` — is
    translated the same way instead of escaping raw.

    ``sock`` is an optional parent-owned UDP socket served by the same
    loop: every datagram that lands on it is handed to ``on_datagram``
    as it arrives — the switch's ``handle`` on a ``router`` run, the
    tail's mirror tap on a tailed ``udp`` run.
    """
    pending = dict(conns)
    out: dict = {}
    extra = [] if sock is None else [sock]
    while pending:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            names = ", ".join(str(key) for key in sorted(pending))
            raise RtError(
                f"{role} {names} did not report a {what} within the "
                f"wall-clock budget"
            )
        watch = extra + list(pending.values()) + [
            children[key].sentinel for key in pending
        ]
        readable, _, _ = select.select(watch, [], [], remaining)
        if sock in readable:
            while True:
                try:
                    datagram, _ = sock.recvfrom(65536)
                except BlockingIOError:
                    break
                on_datagram(datagram)
        for key in list(pending):
            if not pending[key].poll(0):
                continue
            try:
                out[key] = pending[key].recv()
            except EOFError:
                raise RtError(
                    f"{role} {key} closed its pipe without reporting a "
                    f"{what} (exit code {children[key].exitcode})"
                ) from None
            del pending[key]
        # A child that reported and then exited was drained above; the
        # poll(0) guard covers the report-then-die race.
        for key in pending:
            if not children[key].is_alive() and not pending[key].poll(0):
                raise RtError(
                    f"{role} {key} died with exit code "
                    f"{children[key].exitcode} before reporting a {what}"
                )
    return out


def raise_reported_errors(reports: Mapping, *, role: str) -> None:
    """Re-raise the first child-side exception shipped home over a pipe."""
    errors = {key: r["error"] for key, r in reports.items() if "error" in r}
    if errors:
        key, trace = sorted(errors.items())[0]
        raise RtError(f"{role} {key} failed:\n{trace}")


def warn_missed_epochs(live_stats: Mapping, *, transport: str) -> None:
    """Warn when ``live_stats`` counts shards that started after the
    shared epoch had passed.

    With the ready barrier in place this should not happen; if it does
    (extreme scheduler pressure), skew measurements are offset by the
    late start and the run must not pass silently.
    """
    missed = live_stats["missed_epochs"]
    if missed:
        warnings.warn(
            f"{missed} of {live_stats['workers']} {transport} shard(s) "
            f"missed the shared start epoch (lag exceeded the "
            f"{_START_GRACE}s post-barrier grace); clocks started late "
            f"and skew measurements may be offset",
            RuntimeWarning,
            stacklevel=3,
        )


def host_shard(
    config: "LiveRunConfig",
    cell: "Cell",
    members: Iterable[int],
    *,
    tap: Optional[Callable] = None,
    barrier: Optional[Callable[[], tuple]] = None,
    **wire,
) -> dict:
    """Host ``members`` of a built cell on the one loop, run it, report.

    The one host-and-run path of all four names.  An in-process run is
    the shard of every node in the calling process: no ``wire`` (the
    loop's ``shard`` / ``n_shards`` / ``sock`` / ``route`` / ``mirror``
    arguments), no ``barrier``, and ``tap`` sees every trace event as it
    happens.  A forked shard passes a ``barrier`` that blocks until the
    shared start epoch and returns ``(epoch, missed_it)``.
    """
    recorder = LiveRecorder(record_trace=config.record_trace, tap=tap)
    transport = ShardTransport(
        recorder=recorder,
        delay_policy=cell.delay_policy,
        seed=config.seed,
        duration=config.duration,
        time_scale=(
            None if TRANSPORT_SHAPES[config.transport].clock == "virtual"
            else config.time_scale
        ),
        topology=cell.topology,
        plan=cell.fault_plan,
        dynamic=cell.dynamic,
        **wire,
    )
    nodes = host_nodes(config, cell, members, transport=transport, recorder=recorder)
    # Everything expensive is built before the clock starts.
    epoch, missed_epoch = barrier() if barrier is not None else (None, False)
    transport.run(nodes, epoch)
    return {
        "recorder": recorder,
        "logical": {node: live.logical for node, live in nodes.items()},
        "frames_dropped": transport.frames_dropped,
        "events": transport.events_processed,
        "stats": None if transport.faults is None else transport.faults.stats,
        "missed_epoch": missed_epoch,
        "stall": transport.stall,
    }


def _shard_main(
    shard: int,
    shards: tuple,
    config: "LiveRunConfig",
    cell: "Cell",
    route: Mapping[int, tuple],
    mirror: Optional[tuple],
    sock: socket.socket,
    conn,
) -> None:
    """Entry point of one shard process: the parent's built ``cell`` and
    the socket come through the fork, so nothing is pickled or rebuilt."""

    def barrier() -> tuple:
        # Tell the parent we are ready, block until it publishes the
        # shared epoch, and sleep off the start grace so every shard
        # begins at the epoch.
        conn.send({"ready": True})
        epoch = conn.recv()["epoch"]
        lag = epoch - time.monotonic()
        if lag > 0:
            time.sleep(lag)
        return epoch, lag <= 0

    try:
        sock.setblocking(False)
        conn.send(
            host_shard(
                config,
                cell,
                shards[shard],
                barrier=barrier,
                shard=shard,
                n_shards=len(shards),
                sock=sock,
                route=route,
                mirror=mirror,
            )
        )
    except Exception:  # pragma: no cover - surfaced as RtError in the parent
        conn.send({"error": traceback.format_exc()})
    finally:
        conn.close()
        sock.close()


def _feed_tail(tail, datagram: bytes) -> None:
    """Hand one mirrored frame to the streaming tail of a ``udp`` run."""
    record = _decode_message(datagram)
    if record is not None:
        # A mirrored frame's sim-time axis is its own send stamp.
        tail.frame(record, float(record["send"]))


def _bound_socket() -> socket.socket:
    """A UDP socket on an OS-chosen localhost port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    return sock


def run_shards(
    config: "LiveRunConfig", cell: "Cell", *, tail=None
) -> tuple[list[dict], Optional[_RouterCore]]:
    """Fork one ``udp`` or ``router`` run of a built cell.

    Returns every shard's :func:`host_shard` report, in shard order, and
    the switch the frames crossed (``None`` on ``udp``).
    """
    direct = TRANSPORT_SHAPES[config.transport].carrier == "peer"
    role = "node process" if direct else "router worker"
    if "fork" not in multiprocessing.get_all_start_methods():
        raise RtError(
            f"the {config.transport} transport needs the 'fork' start "
            f"method (sockets are inherited); use --transport asyncio on "
            f"this platform"
        )
    if multiprocessing.current_process().daemon:
        raise RtError(
            f"the {config.transport} transport forks shard processes, which "
            f"a daemonic process may not do; call run_live from a "
            f"non-daemonic one"
        )
    ctx = multiprocessing.get_context("fork")
    base = cell.topology
    all_nodes = tuple(base.nodes)
    n_shards = (
        base.n if direct
        else min(config.workers or default_workers(base.n), base.n)
    )
    shards = tuple(all_nodes[s::n_shards] for s in range(n_shards))
    owner = {node: s for s, members in enumerate(shards) for node in members}

    sockets: dict[int, socket.socket] = {}
    # The parent's own socket: the switch on a router run, the mirror
    # tap on a tailed udp run, absent on a plain udp run.
    hub: socket.socket | None = None
    core: _RouterCore | None = None
    children: dict = {}
    try:
        for s in range(n_shards):
            sockets[s] = _bound_socket()
        ports = {s: sock.getsockname()[1] for s, sock in sockets.items()}
        hub_addr = None
        if not direct or tail is not None:
            hub = _bound_socket()
            hub.setblocking(False)
            hub_addr = hub.getsockname()
        if direct:
            route = {n: ("127.0.0.1", ports[owner[n]]) for n in all_nodes}
            mirror = hub_addr
            on_datagram = functools.partial(_feed_tail, tail)
        else:
            route = dict.fromkeys(all_nodes, hub_addr)
            mirror = None
            core = _RouterCore(
                sock=hub,
                time_scale=config.time_scale,
                owner=owner,
                ports=ports,
                tail=tail,
            )
            on_datagram = core.handle

        pipes = {s: ctx.Pipe() for s in range(n_shards)}
        children = {
            s: ctx.Process(
                target=_shard_main,
                args=(s, shards, config, cell, route, mirror, sockets[s],
                      pipes[s][1]),
                daemon=True,
            )
            for s in range(n_shards)
        }
        for child in children.values():
            child.start()
        conns = {s: pipes[s][0] for s in range(n_shards)}
        for s in range(n_shards):
            # Close the parent's copy of the child end: a dead child now
            # surfaces as EOF on the parent's pipe instead of a hang.
            pipes[s][1].close()
        # Ready barrier: every shard finishes building its nodes *before*
        # the epoch is published, so the start grace does not race fork +
        # construction lag (which grows with n).
        readies = collect_reports(
            conns,
            children,
            time.monotonic() + _READY_GRACE + 0.05 * base.n,
            what="ready signal",
            role=role,
        )
        raise_reported_errors(readies, role=role)
        epoch = time.monotonic() + _START_GRACE
        if core is not None:
            core.bind_epoch(epoch)
        for conn in conns.values():
            try:
                conn.send({"epoch": epoch})
            except BrokenPipeError:  # pragma: no cover - death race
                pass  # surfaced as a prompt RtError by the collection below
        budget = _START_GRACE + config.duration * config.time_scale + _REPORT_GRACE
        reports = collect_reports(
            conns,
            children,
            time.monotonic() + budget,
            what="run report",
            role=role,
            sock=hub,
            on_datagram=on_datagram,
        )
        for child in children.values():
            child.join(timeout=5.0)
    finally:
        if hub is not None:
            hub.close()
        for sock in sockets.values():
            sock.close()
        for child in children.values():
            if child.is_alive():  # pragma: no cover - crash cleanup
                child.terminate()

    raise_reported_errors(reports, role=role)
    return [reports[s] for s in sorted(reports)], core
