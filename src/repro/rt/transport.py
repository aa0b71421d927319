"""The transport names of the live runtime, and what tells them apart.

A transport is exactly the three powers the model grants the
*environment* (as opposed to the nodes): it defines the current real
time, it carries messages subject to the ``[0, d_ij]`` delay model, and
it fires hardware-time timers.  One class does all three for every name
— :class:`~repro.rt.shard.ShardTransport`, one loop over the simulator's
:class:`~repro.sim.events.BatchEventQueue` — and the four
names (:data:`~repro.sweep.families.TRANSPORT_FAMILIES`) are its
configurations (:data:`TRANSPORT_SHAPES`), a choice of *clock* and of
*carrier* made once per run from ``config.transport``.  The carrier is
``local`` (the loop's own queue) or the wire, each frame addressed to
its owning ``peer`` or to a central ``switch``:

===========  =======  =======  ========================================
name         clock    carrier  what it is
===========  =======  =======  ========================================
``virtual``  virtual  local    deterministic, simulator-identical: "now"
                               jumps from event to event, nothing sleeps
``asyncio``  wall     local    in-process wall clock: every node in one
                               process, real sleeping, injected delays
``udp``      wall     peer     one forked process per node, frames
                               addressed straight to the owning peer
``router``   wall     switch   a few forked shards around one central
                               switch socket: the scale vehicle
===========  =======  =======  ========================================

Faults and mobility are not a transport's business: the loop runs a
cell's :class:`~repro.sim.faults.FaultPlan` through the simulator's
:class:`~repro.sim.faults.FaultController` and swaps
:class:`~repro.topology.dynamic.DynamicTopology` snapshots at their
change-points, under every name.

(``asyncio`` names the in-process wall clock for history's sake — the
name is a CLI choice and a job parameter — and no longer involves the
:mod:`asyncio` library.)  The node side of the contract is
:class:`~repro.rt.node.LiveNode`.

Delays are *injected* on every name: a
:class:`~repro.sim.messages.DelayPolicy` draws each message's delay from
the model band, so live runs stay inside Assumption-land and the
reconstructed execution passes ``check_delay_bounds``.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["TRANSPORT_SHAPES", "DELAY_SEED_MIX"]


class Shape(NamedTuple):
    """One row of the table above."""

    clock: str  # virtual | wall
    carrier: str  # local | peer | switch


#: The table above as the loop reads it: transport name -> shape.
TRANSPORT_SHAPES = {
    "virtual": Shape("virtual", "local"),
    "asyncio": Shape("wall", "local"),
    "udp": Shape("wall", "peer"),
    "router": Shape("wall", "switch"),
}

#: Delay-RNG seed mix, identical to the simulator's (``seed ^ 0x5EED``)
#: so the virtual backend draws the very same delay stream.
DELAY_SEED_MIX = 0x5EED
