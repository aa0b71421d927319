"""repro — reproduction of "Gradient Clock Synchronization"
(Rui Fan & Nancy Lynch, PODC 2004).

The package provides:

* :mod:`repro.sim` — an executable form of the paper's model: drifting
  hardware clocks, adversarial message delays in ``[0, d_ij]``,
  deterministic discrete-event simulation with full traces;
* :mod:`repro.topology` — networks described by delay-uncertainty
  distances;
* :mod:`repro.algorithms` — the clock synchronization algorithms the
  paper discusses (max-based/Srikanth-Toueg, RBS, external sync) plus a
  gradient candidate of the kind Section 9 conjectures;
* :mod:`repro.gcs` — the paper's contribution: the gradient property,
  the Add Skew and Bounded Increase lemmas, and Theorem 8.1's iterated
  adversary, all executable and verified;
* :mod:`repro.apps` — the motivating applications (TDMA, data fusion,
  target tracking);
* :mod:`repro.experiments` — runnable reproductions E01-E14 of every
  evaluation artifact in the paper (plus extensions beyond it, like the
  E13 fault-robustness sweep and the E14 sim-vs-live comparison);
* :mod:`repro.sweep` — the parallel scenario-sweep engine, including
  the fault & churn axis built on :class:`repro.sim.FaultPlan`;
* :mod:`repro.rt` — the live runtime: the same unchanged algorithm
  processes on real transports (deterministic virtual time, wall-clock
  asyncio, one-process-per-node UDP), recorded as real ``Execution``
  objects.

Quickstart::

    from repro import LowerBoundAdversary, MaxBasedAlgorithm

    result = LowerBoundAdversary(diameter=32).run(MaxBasedAlgorithm())
    print(result.peak_adjacent_skew)   # Omega(log D / log log D), forced
"""

from repro._constants import (
    DEFAULT_RHO,
    gamma,
    lower_bound_curve,
    tau,
)
from repro.algorithms import (
    AveragingAlgorithm,
    BoundedCatchUpAlgorithm,
    ExternalSyncAlgorithm,
    MaxBasedAlgorithm,
    NullAlgorithm,
    RBSAlgorithm,
    SrikanthTouegAlgorithm,
    SyncAlgorithm,
    standard_suite,
)
from repro.errors import ReproError
from repro.gcs import (
    AddSkewPlan,
    AdversarySchedule,
    GradientBound,
    LowerBoundAdversary,
    apply_add_skew,
    force_distance_skew,
    measure_bounded_increase,
)
from repro.sim import (
    Execution,
    FaultPlan,
    HalfDistanceDelay,
    PiecewiseConstantRate,
    Process,
    SimConfig,
    Simulator,
    UniformRandomDelay,
    run_simulation,
)
from repro.topology import (
    Topology,
    balanced_tree,
    broadcast_cluster,
    complete,
    grid,
    line,
    random_geometric,
    ring,
)

__version__ = "1.8.0"

__all__ = [
    "__version__",
    "DEFAULT_RHO",
    "gamma",
    "tau",
    "lower_bound_curve",
    "ReproError",
    # algorithms
    "SyncAlgorithm",
    "MaxBasedAlgorithm",
    "SrikanthTouegAlgorithm",
    "AveragingAlgorithm",
    "BoundedCatchUpAlgorithm",
    "RBSAlgorithm",
    "ExternalSyncAlgorithm",
    "NullAlgorithm",
    "standard_suite",
    # gcs
    "AddSkewPlan",
    "AdversarySchedule",
    "GradientBound",
    "LowerBoundAdversary",
    "apply_add_skew",
    "force_distance_skew",
    "measure_bounded_increase",
    # sim
    "Execution",
    "FaultPlan",
    "HalfDistanceDelay",
    "UniformRandomDelay",
    "PiecewiseConstantRate",
    "Process",
    "SimConfig",
    "Simulator",
    "run_simulation",
    # topology
    "Topology",
    "line",
    "ring",
    "grid",
    "complete",
    "balanced_tree",
    "random_geometric",
    "broadcast_cluster",
]
