"""repro.sweep — the parallel scenario-sweep engine.

Everything one simulator run can tell you, this package asks at grid
scale.  The unit is one :class:`Scenario` cell — nine fields that fix an
execution — with a single path from name to row: ``Scenario.build`` →
``Scenario.simulate`` (or :func:`repro.rt.run.run_live`) →
:func:`cell_metrics`.  A declarative :class:`SweepSpec` (topologies x
algorithms x rate families x delay policies x fault families x mobility
families x transports x seeds) expands into independent, picklable
:class:`Job` cells, a :func:`run_jobs` pool fans them across processes
with deterministic per-job seeding (identical metrics at any worker
count), and the aggregate layer folds the metrics back into the same
``Table``/``ExperimentResult`` shapes the E01..E14 experiments print.
Results persist in a :class:`ContentStore` keyed by job content hash, so
re-running a grid costs only the cells that changed.  That store and the
executor (:mod:`repro.sweep.pool`) are the one back end ``run_jobs`` and
the ``repro-serve`` daemon share: a ``--cache-dir`` *is* a serve store.

Layering: ``sweep`` depends on ``sim``/``topology``/``algorithms``/
``analysis`` only; ``repro.experiments`` builds on ``sweep`` (not the
other way around).
"""

from repro.sweep.aggregate import (
    seed_table,
    summary_table,
    sweep_result,
    to_json_payload,
    write_json,
)
from repro.sweep.families import (
    ALGORITHM_KINDS,
    DELAY_POLICIES,
    FAULT_FAMILIES,
    MOBILITY_FAMILIES,
    RATE_FAMILIES,
    TOPOLOGY_KINDS,
    TRANSPORT_FAMILIES,
    algorithm_from_spec,
    delay_policy_from_spec,
    drifted_rates,
    fault_plan_from_spec,
    mobility_from_spec,
    rates_from_spec,
    spread_rates,
    topology_from_spec,
    wandering_rates,
)
from repro.sweep.jobs import (
    CACHE_VERSION,
    Job,
    JobOutcome,
    execute_job,
    job_hash,
    job_kind,
)
from repro.sweep.runner import run_jobs
from repro.sweep.scenario import Cell, Scenario, cell_metrics
from repro.sweep.spec import SweepSpec, full_spec, quick_spec
from repro.sweep.store import ContentStore

#: The store's name from before the daemon's store and the runner's
#: cache were one class; kept because callers construct it by this name.
ResultCache = ContentStore

__all__ = [
    # spec
    "SweepSpec",
    "quick_spec",
    "full_spec",
    # the scenario cell
    "Scenario",
    "Cell",
    "cell_metrics",
    # jobs
    "Job",
    "JobOutcome",
    "job_kind",
    "job_hash",
    "execute_job",
    "CACHE_VERSION",
    # store and runner
    "ContentStore",
    "ResultCache",
    "run_jobs",
    # aggregation
    "summary_table",
    "seed_table",
    "sweep_result",
    "to_json_payload",
    "write_json",
    # families
    "TOPOLOGY_KINDS",
    "ALGORITHM_KINDS",
    "RATE_FAMILIES",
    "DELAY_POLICIES",
    "FAULT_FAMILIES",
    "MOBILITY_FAMILIES",
    "TRANSPORT_FAMILIES",
    "topology_from_spec",
    "algorithm_from_spec",
    "rates_from_spec",
    "delay_policy_from_spec",
    "fault_plan_from_spec",
    "mobility_from_spec",
    "drifted_rates",
    "spread_rates",
    "wandering_rates",
]
