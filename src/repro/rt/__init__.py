"""repro.rt — the live runtime: paper algorithms on real transports.

Everything else in this repository executes inside the discrete-event
:class:`~repro.sim.simulator.Simulator`.  This package executes the very
same, unchanged :class:`~repro.sim.node.Process` algorithm classes
*outside* it:

* :class:`LiveRunConfig` is a :class:`~repro.sweep.scenario.Scenario`
  plus four live fields, and :func:`run_live` starts from the same
  :meth:`~repro.sweep.scenario.Scenario.build` the simulator path uses;
* :class:`LiveNode` hosts a process behind the standard
  :class:`~repro.sim.node.NodeAPI`, so algorithm code needs zero
  changes; its hardware clock is the simulator's own
  :class:`~repro.sim.clock.HardwareClock` over the cell's rate
  schedule, read at the transport's notion of "now";
* four transport names carry the messages, on **one** loop
  (:class:`ShardTransport`) configured by a clock and a carrier:
  ``virtual`` (virtual clock, local carrier: deterministic and
  byte-identical to the simulator — the cross-validation anchor),
  ``asyncio`` (wall clock, local carrier: in-process, really sleeping),
  and the multi-process runtime (:func:`repro.rt.shard.run_shards`:
  forked shards of that same loop exchanging :mod:`repro.wire`
  datagrams) under two names — ``udp``, one process per node with
  frames addressed peer to peer, and ``router``, many nodes multiplexed
  onto a few workers around one central switch socket (the scale
  vehicle).  Every name runs churn —
  :class:`~repro.sim.faults.FaultPlan` crash/link windows through the
  simulator's own :class:`~repro.sim.faults.FaultController`, and
  :class:`~repro.topology.dynamic.DynamicTopology` rewirings — and
  ``virtual`` stays byte-identical to the simulator under it;
* every run is recorded as a real
  :class:`~repro.sim.execution.Execution`, so skew, gradient-profile,
  and model-compliance queries — and all of :mod:`repro.analysis` —
  apply to live runs verbatim.

Entry points: :func:`run_live` in code, the ``live`` CLI verb
(``python -m repro.experiments live`` / ``repro-live``) from the shell,
the ``live-run`` sweep job kind for grids, and experiment E14 for the
sim-vs-live comparison table.
"""

from repro.rt.jobs import live_run
from repro.rt.node import LiveNode, host_nodes
from repro.rt.recorder import LiveRecorder, build_execution, merge_recorders
from repro.rt.run import LiveRunConfig, run_live, with_transport
from repro.rt.shard import ShardTransport, host_shard

__all__ = [
    "LiveNode",
    "LiveRecorder",
    "LiveRunConfig",
    "ShardTransport",
    "build_execution",
    "host_nodes",
    "host_shard",
    "merge_recorders",
    "live_run",
    "run_live",
    "with_transport",
]
