"""A frozen reference program that measures how fast the machine is
*right now*, so that a timing can be told apart from the weather.

The benchmark runs on small shared virtual machines whose speed drifts:
the same pure-Python work takes 15-50 % longer from one minute to the
next (user CPU time inflates with it, so it is not scheduling, and the
two virtual CPUs drift apart from each other).  No statistic over one
12-second run removes a drift that lasts minutes.  What does remove it
is a yardstick: a small fixed program, of the same kind of work as the
code under test, run every ~100 ms *between* the operations of a timed
pass.  A pass then reports ``measured seconds x (NOMINAL_S / yardstick
seconds measured alongside)`` - seconds at the yardstick's nominal
speed.

The yardstick imports nothing from ``repro`` and must never change with
it: it is the unit the ledger is written in.  It is deliberately a
miniature of what the repository does - a heap-driven discrete-event
loop over objects with per-node dicts (the simulator and the algorithm
callbacks), then text assembly plus a JSON round trip (figures, the
store, the wire) - because a reference that only spins an integer loop
slows down differently from real code when a neighbour shares the
core's caches and front end.  (A dense-matrix part was tried and
dropped: its megabyte temporaries made it the noisiest part, and it
tracked even the numpy-heavy workload worse than the other two.)
"""

from __future__ import annotations

import contextlib
import heapq
import json
import random
import statistics
import time

__all__ = ["Yardstick", "speed", "NOMINAL_S", "SPAN"]

#: Name of the span a traced pass records around its slices.
SPAN = "harness.yardstick"

#: Seconds one slice takes at the speed the ledger's numbers are quoted
#: at (about what the 2.1 GHz virtual CPUs this was built on manage in
#: their better minutes).  Only a scale factor: changing it rescales
#: every timing by the same ratio.
NOMINAL_S = 0.004


class _Node:
    def __init__(self, index: int, neighbours: list, rng: random.Random):
        self.index = index
        self.neighbours = neighbours
        self.clock = 0.0
        self.rate = 1.0 + rng.uniform(-0.01, 0.01)
        self.last = 0.0
        self.known = {j: 0.0 for j in neighbours}
        self.log: list = []

    def now(self, t: float) -> float:
        self.clock += (t - self.last) * self.rate
        self.last = t
        return self.clock

    def on_timer(self, t: float, sim: "_MiniSim") -> None:
        value = self.now(t)
        for j in self.neighbours:
            sim.send(t, self.index, j, value)
        sim.timer(t + 1.0, self.index)

    def on_message(self, t: float, src: int, value: float) -> None:
        own = self.now(t)
        self.known[src] = value
        ahead = max(self.known.values())
        if ahead > own:
            self.clock = own + min(ahead - own, 0.5)
        if len(self.log) < 50:
            self.log.append((t, src, round(value, 6)))


class _MiniSim:
    """Max-based clock sync on a line, uniform delays: ~3k events."""

    def __init__(self, n: int, seed: int):
        self.rng = random.Random(seed)
        self.queue: list = []
        self.seq = 0
        self.nodes = [
            _Node(i, [j for j in (i - 1, i + 1) if 0 <= j < n], self.rng)
            for i in range(n)
        ]
        for i in range(n):
            self.timer(self.rng.random(), i)

    def timer(self, t: float, node: int) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (t, self.seq, 0, node, None, None))

    def send(self, t: float, src: int, dst: int, value: float) -> None:
        self.seq += 1
        heapq.heappush(
            self.queue,
            (t + self.rng.uniform(0.1, 1.0), self.seq, 1, dst, src, value))

    def run(self, horizon: float) -> list:
        queue, nodes = self.queue, self.nodes
        while queue and queue[0][0] < horizon:
            t, _, kind, node, src, value = heapq.heappop(queue)
            if kind == 0:
                nodes[node].on_timer(t, self)
            else:
                nodes[node].on_message(t, src, value)
        return nodes


def _events() -> list:
    return [node.clock for node in _MiniSim(64, 1).run(10.0)]


def _text(clocks: list) -> int:
    rows = [{"node": i, "clock": clock, "label": f"n{i}"}
            for i, clock in enumerate(clocks * 3)]
    frame = json.dumps({"ok": True, "results": rows}, sort_keys=True)
    svg = "".join(
        f'<rect x="{i * 4.5:.2f}" y="{row["clock"]:.3f}" width="4" height="9"/>'
        for i, row in enumerate(json.loads(frame)["results"]))
    return len(frame) + len(svg)


def speed(slices: list) -> float:
    """The machine's speed over a stretch of time, as a share of
    nominal, from the yardstick slices measured during it.

    An operation slows down with the *mean* slowdown over its duration,
    so the slices are averaged - each capped at twice their median, so
    that a slice the scheduler happened to preempt does not count as the
    machine being six times slower.
    """
    cap = 2.0 * statistics.median(slices)
    return NOMINAL_S * len(slices) / sum(min(s, cap) for s in slices)


class Yardstick:
    """Runs slices on demand and keeps what they took."""

    #: Inside a timed pass one slice is due per this much elapsed time
    #: (~6 % of the pass goes to the yardstick) ...
    MIN_GAP_S = 0.1
    #: ... and a tick after a long operation catches up with at most
    #: this many slices back to back.
    MAX_BURST = 5

    def __init__(self) -> None:
        #: Seconds of every slice since ``reset``.
        self.slices: list[float] = []
        #: Seconds of the slices that ran while a pass was being timed.
        self.inside_s = 0.0
        self._last_end = 0.0
        #: ``span(name)`` of the tracer of the pass being timed, so that
        #: a traced pass shows its slices as spans.
        self.span = lambda name: contextlib.nullcontext()
        _text(_events())  # warm: imports, caches, allocator

    def reset(self) -> None:
        self.slices = []
        self.inside_s = 0.0

    def slice(self) -> None:
        """Run one slice now."""
        start = time.perf_counter()
        _text(_events())
        self._last_end = time.perf_counter()
        self.slices.append(self._last_end - start)

    def tick(self) -> float:
        """The slices that are due (call between the operations of a
        timed pass); returns the seconds spent, which the caller leaves
        out of whatever it is timing."""
        gap = time.perf_counter() - self._last_end
        due = min(int(gap / self.MIN_GAP_S), self.MAX_BURST)
        if not due:
            return 0.0
        start = time.perf_counter()
        with self.span(SPAN):
            for _ in range(due):
                self.slice()
        spent = time.perf_counter() - start
        self.inside_s += spent
        return spent
