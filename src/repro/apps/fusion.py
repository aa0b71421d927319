"""Data fusion over a sensor tree (the introduction's first motivation).

    "When fusing data, the children of a parent node must synchronize
     their clocks, so that the times of their readings are consistent
     and a fused reading will make sense."

A physical event happens at one wall-clock instant; every sensor that
observes it stamps it with its *logical* clock.  A parent fusing its
children's reports accepts them as one event only if the timestamps
agree within a tolerance window.  Clock skew between siblings therefore
turns one event into several phantom events (or merges distinct ones).

This module overlays that pipeline on a finished execution over a tree
topology: it generates events, collects sibling timestamp spreads, and
reports the mis-fusion rate at a given tolerance.  The gradient insight
is visible directly: sibling leaves are *nearby* nodes, so an f-GCS
algorithm with small ``f`` at small distances fuses correctly even when
far-apart subtrees disagree wildly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ExperimentError
from repro.sim.execution import Execution
from repro.topology.base import Topology

__all__ = ["FusionGroup", "FusionReport", "fusion_groups", "evaluate_fusion"]


@dataclass(frozen=True)
class FusionGroup:
    """A parent and the children whose readings it fuses."""

    parent: int
    children: tuple[int, ...]


def fusion_groups(topology: Topology, root: int = 0) -> list[FusionGroup]:
    """The fusion tree: BFS from ``root`` over the communication graph.

    Each internal node fuses its direct children — the paper's
    "children of the same parent" locality structure.
    """
    if root not in topology.nodes:
        raise ExperimentError(f"root {root} not in topology")
    children: dict[int, list[int]] = {n: [] for n in topology.nodes}
    for child, parent in topology.bfs_parents(root).items():
        if parent is not None:
            children[parent].append(child)
    return [
        FusionGroup(parent=p, children=tuple(sorted(cs)))
        for p, cs in sorted(children.items())
        if len(cs) >= 2
    ]


@dataclass(frozen=True)
class FusionReport:
    """Mis-fusion accounting over a batch of events."""

    events: int
    groups: int
    fused_correctly: int
    worst_spread: float
    mean_spread: float
    tolerance: float

    @property
    def misfusion_rate(self) -> float:
        total = self.events * self.groups
        return 1.0 - self.fused_correctly / total if total else 0.0


def evaluate_fusion(
    execution: Execution,
    *,
    tolerance: float,
    n_events: int = 50,
    root: int = 0,
    warmup: float = 0.0,
    seed: int = 0,
    event_times: Sequence[float] | None = None,
) -> FusionReport:
    """Stamp ``n_events`` simultaneous observations; check sibling spreads.

    For each event at wall time ``t`` and each fusion group, the spread
    is ``max - min`` of the children's logical timestamps ``L_child(t)``;
    the group fuses correctly iff spread <= tolerance.
    """
    if tolerance <= 0:
        raise ExperimentError("tolerance must be positive")
    groups = fusion_groups(execution.topology, root=root)
    if not groups:
        raise ExperimentError("topology has no fusion groups (need fan-out >= 2)")
    if event_times is None:
        rng = random.Random(seed)
        lo = warmup
        hi = execution.duration
        event_times = sorted(rng.uniform(lo, hi) for _ in range(n_events))
    ok = 0
    worst = 0.0
    total_spread = 0.0
    samples = 0
    for t in event_times:
        snapshot = execution.logical_snapshot(t)
        for group in groups:
            stamps = [snapshot[c] for c in group.children]
            spread = max(stamps) - min(stamps)
            worst = max(worst, spread)
            total_spread += spread
            samples += 1
            if spread <= tolerance:
                ok += 1
    return FusionReport(
        events=len(event_times),
        groups=len(groups),
        fused_correctly=ok,
        worst_spread=worst,
        mean_spread=total_spread / max(samples, 1),
        tolerance=tolerance,
    )
