"""The streaming tail: rolling panels from a live run *while it runs*.

A :class:`StreamingTail` attaches to a :mod:`repro.rt` run
(``run_live(config, tail=...)``) and renders rolling SVG panels from
incremental observations, without waiting for the Execution to
finalize:

* **in-process transports** (virtual, asyncio) feed every
  :class:`~repro.sim.trace.TraceEvent` through the recorder's tap — the
  event's ``logical`` field gives exact per-node clock values;
* the **router** backend taps every frame crossing the central switch
  in the parent — ``("clock", value)`` payloads yield per-node logical
  estimates straight off the wire — plus a counter snapshot per frame
  (``frames_routed`` / ``frames_dropped``);
* the **udp** backend mirrors each sent frame to a parent-side tap
  socket (opt-in, only when a tail is attached), which drains into the
  same ``frame`` entry point.

From these the tail maintains a rolling *skew-spread* series — the
spread ``max - min`` of the freshest logical value per node, the live
estimate of global skew — and rolling counter rates, and re-renders a
panel frame every ``interval`` simulation units.  Frames go to a
``sink`` callable and/or numbered ``tail_NNNN.svg`` files under
``out_dir``; tests pass a list-appending sink and never touch disk.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Callable, Optional

from repro.viz.panels import Series, line_panel, stat_strip
from repro.viz.svg import SvgCanvas

__all__ = ["StreamingTail"]


def _clock_value(payload) -> float | None:
    """Extract a logical-clock reading from a wire payload, if any.

    Every algorithm in :mod:`repro.algorithms` gossips ``(tag, number)``
    pairs; a numeric second element is treated as the sender's clock
    sample.  Unknown payload shapes are simply not charted.
    """
    if (
        isinstance(payload, (tuple, list))
        and len(payload) == 2
        and isinstance(payload[1], (int, float))
        and not isinstance(payload[1], bool)
    ):
        return float(payload[1])
    return None


class StreamingTail:
    """Rolling live-run panels rendered from incremental events.

    Parameters
    ----------
    interval:
        Simulation-time units between rendered frames.
    window:
        Width of the rolling time window each panel shows.
    sink:
        ``sink(svg_string, frame_index)`` called per rendered frame.
    out_dir:
        Directory receiving ``tail_NNNN.svg`` files (created on demand).
    max_points:
        Cap on retained series points (memory bound for long runs).
    """

    def __init__(
        self,
        *,
        interval: float = 0.5,
        window: float = 10.0,
        sink: Optional[Callable[[str, int], None]] = None,
        out_dir: str | Path | None = None,
        max_points: int = 4096,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = float(interval)
        self.window = float(window)
        self.sink = sink
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.frames_rendered = 0
        self.latest: dict[int, tuple[float, float]] = {}
        self.counters: dict[str, int] = {}
        self._spread: deque[tuple[float, float]] = deque(maxlen=max_points)
        self._rates: dict[str, deque[tuple[float, float]]] = {}
        self._events_seen = 0
        self._frames_seen = 0
        self._last_render: float | None = None
        self._now = 0.0

    # ------------------------------------------------------------------
    # observation entry points (called by the rt backends)

    def event(self, event) -> None:
        """Observe one in-process :class:`TraceEvent` (recorder tap)."""
        if event.node >= 0:
            self.latest[event.node] = (event.real_time, event.logical)
        self._events_seen += 1
        self._observe(event.real_time)

    def frame(self, record: dict, now: float) -> None:
        """Observe one wire frame (router tap / udp mirror), its shape
        already checked where it was received."""
        self._frames_seen += 1
        value = _clock_value(record["payload"])
        if value is not None:
            self.latest[record["src"]] = (float(record["send"]), value)
        self._observe(now)

    def stats(self, now: float, **counters) -> None:
        """Observe a counter snapshot (frames_routed, frames_dropped, ...)."""
        for key, value in counters.items():
            self.counters[key] = int(value)
            self._rates.setdefault(
                key, deque(maxlen=self._spread.maxlen)
            ).append((now, float(value)))
        self._observe(now)

    # ------------------------------------------------------------------
    # rolling state

    def _observe(self, now: float) -> None:
        self._now = max(self._now, float(now))
        if len(self.latest) >= 2:
            values = [v for _, v in self.latest.values()]
            self._spread.append((self._now, max(values) - min(values)))
        if self._last_render is None:
            # First observation: render immediately, so even very short
            # runs produce at least one in-flight frame.
            self.render_now()
        elif self._now - self._last_render >= self.interval:
            self.render_now()

    def _windowed(self, series) -> tuple[list[float], list[float]]:
        lo = self._now - self.window
        xs, ys = [], []
        for t, v in series:
            if t >= lo:
                xs.append(t)
                ys.append(v)
        return xs, ys

    # ------------------------------------------------------------------
    # rendering

    def render_now(self) -> str:
        """Render one rolling-panel frame and dispatch it."""
        canvas = SvgCanvas(640, 360, background="#fafafa")
        canvas.text(16, 22, f"live tail @ t={self._now:.2f}", size=13,
                    weight="bold", klass="tail-title")
        stat_strip(
            canvas, 16, 40,
            [
                ("nodes seen", len(self.latest)),
                ("events", self._events_seen),
                ("frames", self._frames_seen),
                *sorted(self.counters.items()),
            ],
        )
        xs, ys = self._windowed(self._spread)
        line_panel(
            canvas, 60, 70, 540, 120,
            [Series("skew spread (latest estimates)", xs or [self._now],
                    ys or [0.0], color="#c0392b")],
            title="rolling skew spread",
            y_label="spread",
            x_label="sim time",
        )
        rate_series = []
        for key in sorted(self._rates):
            rxs, rys = self._windowed(self._rates[key])
            if rxs:
                rate_series.append(Series(key, rxs, rys))
        line_panel(
            canvas, 60, 220, 540, 110,
            rate_series or [Series("no counters", [self._now], [0.0])],
            title="transport counters",
            y_label="count",
            x_label="sim time",
        )
        svg = canvas.to_string()
        index = self.frames_rendered
        self.frames_rendered += 1
        self._last_render = self._now
        if self.sink is not None:
            self.sink(svg, index)
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            (self.out_dir / f"tail_{index:04d}.svg").write_text(
                svg, encoding="utf-8"
            )
        return svg

    def close(self) -> None:
        """Render one final frame capturing the end-of-run state."""
        if self._last_render is None or self._now > self._last_render:
            self.render_now()
