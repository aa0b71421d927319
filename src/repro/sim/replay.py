"""Execution replay: freeze an execution's randomness and re-run it.

A finished :class:`~repro.sim.execution.Execution` records every
message's delay keyed by global send order.  Replaying the run with a
:class:`~repro.sim.messages.SequenceDelay` scripted from those records
must reproduce the execution exactly — a strong end-to-end check of the
simulator's determinism contract, and a practical tool:

* turn a run under a *random* delay policy into a reproducible artifact
  (e.g. to bisect an algorithm regression on the exact same network
  behavior);
* verify that an algorithm change is observationally equivalent on a
  frozen schedule.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.algorithms.base import SyncAlgorithm
from repro.errors import SimulationError
from repro.gcs.indistinguishability import assert_indistinguishable_prefix
from repro.sim.execution import Execution
from repro.sim.messages import SequenceDelay
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.base import Topology

__all__ = ["delay_script", "replay", "verify_replay"]


def delay_script(execution: Execution) -> dict[int, float]:
    """The execution's delays keyed by message sequence number."""
    return {m.seq: m.delay for m in execution.messages}


def replay(
    execution: Execution,
    algorithm: SyncAlgorithm,
    *,
    rate_schedules: Optional[Mapping[int, PiecewiseConstantRate]] = None,
    topology: Optional[Topology] = None,
    seed: int = 0,
) -> Execution:
    """Re-run ``algorithm`` against the frozen delays of ``execution``.

    ``rate_schedules`` must be the schedules the original run used (the
    execution's hardware clocks carry them, so they default to those).
    The replayed algorithm must send messages in the same global order
    for the script to apply — replaying the *same* deterministic
    algorithm always does.
    """
    topo = topology or execution.topology
    rates = (
        dict(rate_schedules)
        if rate_schedules is not None
        else {n: hw.schedule for n, hw in execution.hardware.items()}
    )
    return run_simulation(
        topo,
        algorithm.processes(topo),
        SimConfig(duration=execution.duration, rho=execution.rho, seed=seed),
        rate_schedules=rates,
        delay_policy=SequenceDelay(delay_script(execution)),
    )


def verify_replay(  # repro: allow[DEAD001] contract 4 replay check
    execution: Execution,
    algorithm: SyncAlgorithm,
    *,
    seed: int = 0,
) -> Execution:
    """Replay and assert observational equivalence; returns the replay.

    Raises :class:`~repro.errors.IndistinguishabilityError` if any node
    could tell the runs apart, and :class:`SimulationError` if the
    replay sent a different number of messages (a cheap first-line
    check before the per-node comparison).
    """
    replayed = replay(execution, algorithm, seed=seed)
    if len(replayed.messages) != len(execution.messages):
        raise SimulationError(
            f"replay sent {len(replayed.messages)} messages, original "
            f"sent {len(execution.messages)}"
        )
    assert_indistinguishable_prefix(execution, replayed)
    return replayed
