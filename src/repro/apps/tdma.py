"""TDMA slotting on top of synchronized logical clocks.

The paper's headline implication:

    "the TDMA protocol with a fixed slot granularity will fail as the
     network grows, even if the maximum degree of each node stays
     constant."

TDMA divides logical time into frames of ``n_slots`` slots of fixed
width; each node transmits only during its slot, with slots assigned by
graph coloring so that interfering nodes never share one.  Correctness
rests entirely on neighbors reading compatible clocks: with adjacent
skew beyond the guard margin, two nodes can sit in *different* slots of
their own frames at the same wall-clock instant and collide.

This module overlays a TDMA schedule on a finished execution: it
computes every node's real-time transmission intervals by inverting its
logical clock, then intersects intervals of interfering pairs.  Because
the lower bound forces adjacent skew that grows with the diameter
(Theorem 8.1), collision-freedom with fixed slot width is impossible in
large networks — experiment E07 measures exactly that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.sim.execution import Execution
from repro.topology.base import Topology

__all__ = ["TDMASchedule", "TDMAReport", "assign_slots", "evaluate_tdma"]


@dataclass(frozen=True)
class TDMASchedule:
    """Slot assignment + timing parameters.

    ``slots[node]`` is the node's slot index within the frame;
    ``n_slots`` the frame length in slots; ``slot_width`` the slot
    length in *logical* time; ``guard`` the silent margin kept at both
    ends of the slot (transmission occupies
    ``[slot*w + guard, (slot+1)*w - guard]``).
    """

    slots: dict[int, int]
    n_slots: int
    slot_width: float
    guard: float = 0.0

    def __post_init__(self) -> None:
        if self.n_slots < 1 or self.slot_width <= 0:
            raise ExperimentError("need n_slots >= 1 and slot_width > 0")
        if not 0 <= self.guard < self.slot_width / 2:
            raise ExperimentError("guard must be < slot_width / 2")

    @property
    def frame(self) -> float:
        return self.n_slots * self.slot_width


def assign_slots(
    topology: Topology, *, slot_width: float, guard: float = 0.0
) -> TDMASchedule:
    """Color the interference graph greedily; one slot per color.

    Interference = communication adjacency (nodes that can hear each
    other).  Greedy coloring uses at most ``max_degree + 1`` colors, so
    with constant degree the frame length stays constant as the network
    grows — the precondition of the paper's TDMA claim.
    """
    adjacency = topology.comm_adjacency()
    # Largest-first greedy: a stable sort by degree, descending, then
    # each node takes the least slot no coloured neighbour holds.
    coloring: dict[int, int] = {}
    order = sorted(adjacency, key=lambda u: len(adjacency[u]), reverse=True)
    for node in order:
        taken = {coloring[v] for v in adjacency[node] if v in coloring}
        coloring[node] = next(c for c in itertools.count() if c not in taken)
    n_slots = max(coloring.values()) + 1
    return TDMASchedule(
        slots=coloring, n_slots=n_slots, slot_width=slot_width, guard=guard
    )


@dataclass(frozen=True)
class TDMAReport:
    """Collision accounting for one execution under one schedule."""

    transmissions: int
    collisions: int
    colliding_pairs: list[tuple[int, int]]
    n_slots: int
    slot_width: float

    @property
    def collision_rate(self) -> float:
        return self.collisions / self.transmissions if self.transmissions else 0.0


def _transmission_intervals(
    execution: Execution,
    node: int,
    schedule: TDMASchedule,
    *,
    horizon: float,
) -> list[tuple[float, float]]:
    """Real-time intervals during which ``node`` transmits."""
    clock = execution.logical[node]
    slot = schedule.slots[node]
    frame = schedule.frame
    intervals = []
    end_value = clock.value_at(horizon)
    m = 0
    while True:
        lo_value = m * frame + slot * schedule.slot_width + schedule.guard
        hi_value = m * frame + (slot + 1) * schedule.slot_width - schedule.guard
        if lo_value > end_value:
            break
        t_lo = clock.time_at(lo_value)
        t_hi = clock.time_at(min(hi_value, end_value))
        if t_hi > t_lo:
            intervals.append((min(t_lo, horizon), min(t_hi, horizon)))
        m += 1
    return intervals


def _overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return min(a[1], b[1]) - max(a[0], b[0]) > 1e-9


def evaluate_tdma(
    execution: Execution,
    schedule: TDMASchedule,
    *,
    horizon: float | None = None,
) -> TDMAReport:
    """Count real-time collisions between interfering nodes.

    A collision is any wall-clock overlap between transmission intervals
    of two nodes that share a communication edge.  (Perfectly
    synchronized clocks give zero by construction of the coloring.)
    """
    horizon = horizon if horizon is not None else execution.duration
    intervals = {
        node: _transmission_intervals(execution, node, schedule, horizon=horizon)
        for node in execution.topology.nodes
    }
    transmissions = sum(len(v) for v in intervals.values())
    collisions = 0
    colliding_pairs: set[tuple[int, int]] = set()
    for i, j in execution.topology.comm_pairs():
        for a in intervals[i]:
            for b in intervals[j]:
                if _overlap(a, b):
                    collisions += 1
                    colliding_pairs.add((i, j))
    return TDMAReport(
        transmissions=transmissions,
        collisions=collisions,
        colliding_pairs=sorted(colliding_pairs),
        n_slots=schedule.n_slots,
        slot_width=schedule.slot_width,
    )
