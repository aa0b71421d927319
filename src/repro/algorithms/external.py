"""External synchronization to a designated source (cf. Ostrovsky &
Patt-Shamir [6]).

Nodes form a BFS spanning tree of the communication graph rooted at the
source.  Each node follows its *parent*: the parent gossips its own
logical clock value, and a child jumps forward to any parent value ahead
of its own clock.  (Following the parent's actual sent value — rather
than relaying dead-reckoned estimates — avoids estimate-inflation
feedback; the price is that external error accumulates with tree depth,
which is the honest behavior of hierarchical external sync.)

External synchronization keeps every node within ``O(depth)`` of the
source — but, as the paper notes (Section 2), good external
synchronization does **not** imply a good gradient: a resync arriving at
one sibling a delay earlier than the other yanks them apart exactly like
the max algorithm.  Experiment E11 exhibits the profile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import PeriodicProcess, SyncAlgorithm
from repro.errors import TopologyError
from repro.sim.node import NodeAPI, Process
from repro.topology.base import Topology

__all__ = ["ExternalSyncAlgorithm", "TreeFollowerProcess"]


class TreeFollowerProcess(PeriodicProcess):
    """Follow the parent's clock; gossip own clock (children listen).

    A follower behind its parent jumps forward to the parent's value; a
    follower ahead of its parent *slows down* to the validity-safe floor
    rate until it drops back within ``slack`` of the parent's estimate.
    (Requirement 1 allows logical rates down to 1/2, so slowing is legal;
    clocks can never run backward.)
    """

    def __init__(self, period: float, parent: int | None, slack: float):
        super().__init__(period)
        self.parent = parent  # None for the source/root
        self.slack = slack
        self._parent_seen: tuple[float, float] | None = None  # (value, hw)

    def _parent_estimate(self, api: NodeAPI) -> float | None:
        if self._parent_seen is None:
            return None
        value, hw_then = self._parent_seen
        return value + (api.hardware_now() - hw_then)

    def _steer(self, api: NodeAPI) -> None:
        estimate = self._parent_estimate(api)
        if estimate is None:
            return
        own = api.logical_now()
        if own < estimate:
            api.jump_logical_to(estimate)
            api.set_logical_multiplier(1.0)
        elif own - estimate > self.slack:
            api.set_logical_multiplier(api.min_logical_multiplier)
        else:
            api.set_logical_multiplier(1.0)

    def on_message(self, api: NodeAPI, sender: int, payload) -> None:
        if self.parent is None or sender != self.parent:
            return
        kind, value = payload
        if kind != "clock":
            return
        self._parent_seen = (value, api.hardware_now())
        self._steer(api)

    def tick(self, api: NodeAPI) -> None:
        self._steer(api)


@dataclass
class ExternalSyncAlgorithm(SyncAlgorithm):
    """Factory: BFS tree rooted at ``source``; each node follows its parent.

    ``slack`` is how far a follower may run ahead of its parent estimate
    before it engages the slow mode; it should exceed the one-link
    estimate error (delay uncertainty + drift over a period).
    """

    period: float = 1.0
    source: int = 0
    slack: float = 2.0
    name: str = "external"

    def processes(self, topology: Topology) -> dict[int, Process]:
        parents = topology.bfs_parents(self.source)
        missing = set(topology.nodes) - set(parents)
        if missing:
            raise TopologyError(
                f"nodes {sorted(missing)} unreachable from source "
                f"{self.source}; external sync needs a connected graph"
            )
        return {
            node: TreeFollowerProcess(self.period, parents[node], self.slack)
            for node in topology.nodes
        }
