"""In-process wall-clock transport: real asyncio tasks, injected delays.

Every node lives in one process on one asyncio event loop, but time is
*real*: message deliveries and hardware timers are ``loop.call_later``
callbacks, and "now" is the loop's monotonic clock measured from the
run's start.  ``time_scale`` maps simulation units to
wall seconds, so a 60-unit experiment can run in 3 s of wall time
(``time_scale=0.05``) or in real time (``time_scale=1``).

What is — deliberately — no longer deterministic: the OS schedules the
loop, so callback order between near-simultaneous events varies run to
run, and measured event times carry real jitter.  What still holds, and
what the reconstructed :class:`~repro.sim.execution.Execution` verifies:
injected delays stay inside the ``[0, d_ij]`` model band, hardware
clocks follow their assigned drift schedules exactly, and logical clocks
never jump backwards.  E14 quantifies the skew gap this scheduling noise
introduces relative to the simulator.
"""

from __future__ import annotations

import asyncio
from typing import Mapping, Optional

import random

from repro.errors import RtError
from repro.rt.node import LiveNode
from repro.rt.recorder import LiveRecorder
from repro.rt.transport import DELAY_SEED_MIX, Transport
from repro.sim.messages import DelayPolicy, Message

__all__ = ["InProcAsyncioTransport"]


class InProcAsyncioTransport(Transport):
    """Wall-clock asyncio backend: one loop, every node, real sleeping."""

    name = "asyncio"

    def __init__(
        self,
        *,
        recorder: LiveRecorder,
        delay_policy: Optional[DelayPolicy] = None,
        seed: int = 0,
        time_scale: float = 0.1,
    ):
        if time_scale <= 0:
            raise RtError(f"time_scale must be positive, got {time_scale}")
        self._init_messaging(
            recorder=recorder,
            delay_policy=delay_policy,
            delay_rng=random.Random(seed ^ DELAY_SEED_MIX),
            seed=seed,
        )
        self.time_scale = time_scale
        self._now = 0.0
        self._duration = 0.0
        self._finished = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._origin = 0.0

    # ------------------------------------------------------------------
    # Transport interface

    def now(self) -> float:
        """The instant frozen at the current callback's dispatch."""
        return self._now

    def _elapsed(self) -> float:
        """Simulation units since the run started, off the loop's clock."""
        return (self._loop.time() - self._origin) / self.time_scale

    def _touch_now(self) -> float:
        """Sample wall time into the frozen instant (clamped to the run)."""
        self._now = min(self._elapsed(), self._duration)
        return self._now

    def transmit(self, sender: LiveNode, receiver: int, payload) -> None:
        message = self._next_message(sender, receiver, payload)
        if message is not None:
            self._call_at(message.receive_time, self._deliver, receiver, message)

    def schedule_timer(self, node: LiveNode, fire_at: float, name: str) -> None:
        self._call_at(fire_at, self._fire_timer, node.node, name)

    def _call_at(self, sim_time: float, callback, *args) -> None:
        delay_wall = max(0.0, (sim_time - self._elapsed()) * self.time_scale)
        self._loop.call_later(delay_wall, callback, *args)

    # ------------------------------------------------------------------
    # callback dispatch (runs inside the loop)

    def _deliver(self, receiver: int, message: Message) -> None:
        if self._touch_now() >= self._duration:
            return  # landed after the run's horizon
        self._nodes[receiver].deliver(message.sender, message.payload)

    def _fire_timer(self, node: int, name: str) -> None:
        if self._touch_now() >= self._duration:
            return
        self._nodes[node].fire_timer(name)

    # ------------------------------------------------------------------

    def run(self, nodes: Mapping[int, LiveNode], duration: float) -> None:
        if self._finished:
            raise RtError("an InProcAsyncioTransport instance runs exactly once")
        self._finished = True
        self._duration = duration
        self._nodes = dict(nodes)
        asyncio.run(self._main())
        self._now = duration

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._origin = self._loop.time()
        # All nodes start together at (nominal) real time 0.
        for node in sorted(self._nodes):
            self._nodes[node].record_start()
        for node in sorted(self._nodes):
            self._nodes[node].begin()
        self._touch_now()
        remaining = (self._duration - self._elapsed()) * self.time_scale
        await asyncio.sleep(max(0.0, remaining))
        # Returning ends the loop; call_later callbacks scheduled past
        # the horizon are discarded with it.
