#!/usr/bin/env python
"""Live runtime walkthrough: the same algorithm in three worlds.

Covers what ``repro.rt`` adds on top of the simulator:

1. run the gradient candidate inside the discrete-event simulator;
2. run the *same unchanged process objects* on the live runtime's
   virtual-time transport and check the executions agree exactly;
3. run them again as real wall-clock asyncio tasks and measure the skew
   gap that genuine OS scheduling noise introduces.

Run:  python examples/live_run.py
"""

import time

import numpy as np

from repro.analysis import Table
from repro.rt import LiveRunConfig, run_live, with_transport

SCENARIO = LiveRunConfig(
    topology="line:8",
    algorithm="gradient",
    rates="drifted",
    delays="uniform",
    duration=12.0,
    rho=0.2,
    seed=7,
    transport="virtual",
    time_scale=0.05,  # wall seconds per sim unit, for the asyncio leg
)


def simulator_baseline():
    print("=== 1. the simulator baseline ===")
    # A LiveRunConfig is a Scenario: the very cell the live legs run.
    execution = SCENARIO.simulate()
    print(f"final max skew (sim): {execution.max_skew(SCENARIO.duration):.4f}\n")
    return execution


def virtual_twin(sim):
    print("=== 2. the live runtime on virtual time ===")
    live = run_live(SCENARIO)
    times = sim.sample_times(1.0)
    gap = float(
        np.abs(
            np.array([sim.max_skew(t) for t in times])
            - np.array([live.max_skew(t) for t in times])
        ).max()
    )
    print(f"source: {live.source}; max trajectory gap vs sim: {gap:.2e}")
    print("identical executions: the LiveNode adapter changed nothing.\n")


def asyncio_real_time(sim):
    print("=== 3. real wall-clock asyncio tasks ===")
    start = time.perf_counter()
    live = run_live(with_transport(SCENARIO, "asyncio"))
    wall = time.perf_counter() - start
    table = Table(
        title="sim vs live-asyncio",
        headers=["metric", "sim", "live-asyncio"],
        caption=f"{SCENARIO.duration} sim units in {wall:.2f}s of wall "
        f"clock (time_scale {SCENARIO.time_scale})",
    )
    end = SCENARIO.duration
    table.add_row(
        "final max skew",
        round(sim.max_skew(end), 4),
        round(live.max_skew(end), 4),
    )
    table.add_row("messages", len(sim.messages), len(live.messages))
    print(table.render())
    print("\nThe gap is OS scheduling noise; delays stay in the model band.")
    live.check_delay_bounds()
    live.check_validity()
    print("live run passes the model-compliance checks.")


if __name__ == "__main__":
    sim = simulator_baseline()
    virtual_twin(sim)
    asyncio_real_time(sim)
