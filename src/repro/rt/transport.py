"""The transport names of the live runtime, and what tells them apart.

A transport is exactly the three powers the model grants the
*environment* (as opposed to the nodes): it defines the current real
time, it carries messages subject to the ``[0, d_ij]`` delay model, and
it fires hardware-time timers.  One class does all three for every name
— :class:`~repro.rt.shard.ShardTransport`, one heap loop — and the four
names (:data:`TRANSPORT_NAMES`) are its configurations, a choice of
*clock* and of *carrier* made once per run from ``config.transport``:

===========  =======  =======  ========================================
name         clock    carrier  what it is
===========  =======  =======  ========================================
``virtual``  virtual  local    deterministic, simulator-identical: "now"
                               jumps from event to event, nothing sleeps
``asyncio``  wall     local    in-process wall clock: every node in one
                               process, real sleeping, injected delays
``udp``      wall     wire     one forked process per node, frames
                               addressed straight to the owning peer
``router``   wall     wire     a few forked shards around one central
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

from repro.sweep.families import TRANSPORT_FAMILIES

__all__ = ["TRANSPORT_NAMES", "DELAY_SEED_MIX"]

#: The transport spec names accepted by the CLI, sweep axis, and E14 —
#: the keys of the capability table the layers below ``rt`` also read.
TRANSPORT_NAMES = tuple(TRANSPORT_FAMILIES)

#: Delay-RNG seed mix, identical to the simulator's (``seed ^ 0x5EED``)
#: so the virtual backend draws the very same delay stream.
DELAY_SEED_MIX = 0x5EED
