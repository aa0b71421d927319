"""Simulation substrate: clocks, events, messages, the simulator, traces.

This subpackage is the executable form of the paper's model (Section 3):
timed-automaton-style nodes with drifting hardware clocks, exchanging
messages whose delays the adversary picks from ``[0, d_ij]``.
"""

from repro.sim.clock import HardwareClock, LogicalClock
from repro.sim.events import BatchEventQueue, EventQueue
from repro.sim.execution import Execution
from repro.sim.faults import (
    CrashWindow,
    FaultPlan,
    LinkFault,
)
from repro.sim.messages import (
    FixedFractionDelay,
    HalfDistanceDelay,
    JitterDelay,
    Message,
    PerPairDelay,
    SequenceDelay,
    UniformRandomDelay,
)
from repro.sim.node import NodeAPI, Process
from repro.sim.rates import PiecewiseConstantRate, constant_schedules
from repro.sim.simulator import SimConfig, Simulator, run_simulation
from repro.sim.trace import ColumnarTrace, ExecutionTrace, TraceEvent

__all__ = [
    "HardwareClock",
    "LogicalClock",
    "EventQueue",
    "BatchEventQueue",
    "Execution",
    "FaultPlan",
    "CrashWindow",
    "LinkFault",
    "Message",
    "HalfDistanceDelay",
    "FixedFractionDelay",
    "UniformRandomDelay",
    "PerPairDelay",
    "JitterDelay",
    "SequenceDelay",
    "NodeAPI",
    "Process",
    "PiecewiseConstantRate",
    "constant_schedules",
    "SimConfig",
    "Simulator",
    "run_simulation",
    "ExecutionTrace",
    "ColumnarTrace",
    "TraceEvent",
]
