"""Topologies: distance matrices (delay uncertainty) + communication graphs.

Static networks are :class:`~repro.topology.base.Topology` values built
by the generators in :mod:`repro.topology.generators`; time-varying
networks are :class:`~repro.topology.dynamic.DynamicTopology` sequences
of snapshots built by the mobility models in
:mod:`repro.topology.dynamic`.  The simulator accepts either.
"""

from repro.topology.base import Topology
from repro.topology.dynamic import (
    DynamicTopology,
    components,
    link_schedule,
    random_waypoint,
    snapshot_sequence,
)
from repro.topology.generators import (
    balanced_tree,
    broadcast_cluster,
    complete,
    grid,
    line,
    random_geometric,
    ring,
    star,
)

__all__ = [
    "Topology",
    "DynamicTopology",
    "components",
    "link_schedule",
    "random_waypoint",
    "snapshot_sequence",
    "line",
    "ring",
    "grid",
    "complete",
    "star",
    "balanced_tree",
    "random_geometric",
    "broadcast_cluster",
]
