"""Mobility animation: a dynamic-topology run as frame-per-snapshot SVG.

Each frame shows one topology snapshot of the run: node positions (the
generator's actual placements when the snapshot carries them, a
deterministic circular layout otherwise), the in-force communication
edges colored by the *instantaneous* adjacent skew ``|L_i(t) - L_j(t)|``
at that snapshot's sample instant, and crashed nodes drawn hollow.

Two outputs from the same frame builder:

* :func:`mobility_animation` — one self-contained SVG whose frames
  cycle via SMIL (``calcMode="discrete"`` opacity switching; every
  browser's native SVG engine plays it, no JS);
* :func:`mobility_frames` — the numbered-frame series as standalone SVG
  strings, for tools that want stills.

Static executions render as a single frame — the same code path, so
every execution is animatable.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim.trace import CRASH, RECOVER
from repro.viz.panels import AXIS_COLOR
from repro.viz.svg import _SEQUENTIAL, SvgCanvas, _fmt_run, _ramp

__all__ = ["mobility_animation", "mobility_frames"]

_W, _H = 480.0, 420.0
_PLOT = (40.0, 56.0, 400.0, 320.0)  # x, y, w, h of the layout box


def _snapshots(execution) -> list[tuple[float, object]]:
    timeline = execution.topology_timeline
    if timeline is None or len(timeline) == 0:
        return [(0.0, execution.topology)]
    return [(t, topo) for t, topo in timeline if t <= execution.duration]


def _layout(snapshots, n: int) -> np.ndarray:
    """Per-frame positions, normalized into the plot box:
    ``frames x n x 2``."""
    circle = [
        (math.cos(2 * math.pi * node / n), math.sin(2 * math.pi * node / n))
        for node in range(n)
    ]
    raw = []
    for _, topo in snapshots:
        positions = getattr(topo, "positions", None)
        if positions and all(node in positions for node in range(n)):
            raw.append([positions[node] for node in range(n)])
        else:
            raw.append(circle)
    xy = np.array(raw, dtype=float)
    x_lo, y_lo = xy.min(axis=(0, 1)).tolist()
    x_hi, y_hi = xy.max(axis=(0, 1)).tolist()
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    px, py, pw, ph = _PLOT
    scale = min(pw, ph) / span
    xy[..., 0] = px + pw / 2 + (xy[..., 0] - (x_lo + x_hi) / 2) * scale
    xy[..., 1] = py + ph / 2 + (xy[..., 1] - (y_lo + y_hi) / 2) * scale
    return xy


def _down_sets(execution, frame_times) -> list[set[int]]:
    """Which nodes are inside a crash window at each frame instant."""
    transitions = sorted(
        (e.real_time, e.kind, e.node)
        for e in execution.trace.of_kind(CRASH, RECOVER)
    )
    out = []
    for t in frame_times:
        down: set[int] = set()
        for at, kind, node in transitions:
            if at > t:
                break
            (down.add if kind == CRASH else down.discard)(node)
        out.append(down)
    return out


#: One edge: four coordinates, then the color's three channels.
_EDGE = ('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#%02x%02x%02x" '
         'stroke-width="2.2" opacity="0.9" class="edge"/>')
#: One node's label: ``x``, ``y - 9``, the node.
_LABEL = (f'<text x="%s" y="%s" font-size="7" font-family="{SvgCanvas.FONT}" '
          'text-anchor="middle" fill="#555555">%d</text>')
#: One node and its label: ``cx``, ``cy``, the node, then :data:`_LABEL`.
_NODE_UP = ('<circle cx="%s" cy="%s" r="6" fill="#2c3e50" stroke="#ffffff" '
            'stroke-width="1" class="node"><title>node %d</title></circle>'
            + _LABEL)
_NODE_DOWN = ('<circle cx="%s" cy="%s" r="6" fill="#ffffff" stroke="#c0392b" '
              'stroke-width="1.6" class="node-down"><title>node %d (down)'
              '</title></circle>' + _LABEL)


def _frame_marks(
    canvas: SvgCanvas,
    positions: np.ndarray,
    edge_skews: tuple[np.ndarray, np.ndarray],
    v_hi: float,
    down: set[int],
    caption: str,
) -> None:
    """Every edge, then every node with its label, as finished element
    strings: all coordinates in one :func:`_fmt_run`, every edge color
    in one :func:`_ramp`."""
    edges, skews = edge_skews
    rgb = _ramp(_SEQUENTIAL, skews / v_hi if v_hi > 0 else np.zeros(len(skews)))
    nodes = np.column_stack([positions, positions[:, 1] - 9])
    coords = _fmt_run(
        positions[edges].ravel().tolist() + nodes.ravel().tolist(), '"'
    ).split('"')
    e4 = 4 * len(edges)
    canvas.add("".join(map(_EDGE.__mod__, zip(
        coords[0:e4:4], coords[1:e4:4], coords[2:e4:4], coords[3:e4:4],
        *rgb.T.tolist(),
    ))))
    canvas.add("".join(
        (_NODE_DOWN if node in down else _NODE_UP) % (x, y, node, x, label_y, node)
        for node, (x, y, label_y) in enumerate(zip(
            coords[e4::3], coords[e4 + 1::3], coords[e4 + 2::3]))
    ))
    canvas.text(_PLOT[0], _H - 18, caption, size=9, fill=AXIS_COLOR,
                klass="frame-caption")


def _build(execution):
    snapshots = _snapshots(execution)
    n = execution.topology.n
    duration = execution.duration
    # Sample each snapshot mid-segment: clocks have reacted to the
    # rewiring by then, and the instant is always inside the run.
    frame_times = []
    for k, (t, _) in enumerate(snapshots):
        t_end = snapshots[k + 1][0] if k + 1 < len(snapshots) else duration
        frame_times.append(min(t + 0.5 * max(t_end - t, 0.0), duration))
    values = execution.logical_matrix(frame_times)  # n x K
    layouts = _layout(snapshots, n)
    downs = _down_sets(execution, frame_times)

    # Per frame: the drawn communication edges (sorted) and their skews.
    # The scale ``v_hi`` is the largest skew over the adjacent pairs and
    # the edges, in that order: a builtin ``max``, so a NaN counts only
    # where it comes first.
    per_frame_skews = []
    v_hi = 0.0
    for k, (t, topo) in enumerate(snapshots):
        adjacent = topo.adjacent_pairs()
        pairs = np.array(adjacent + sorted(topo.comm_edges),
                         dtype=np.intp).reshape(-1, 2)
        skews = np.abs(values[pairs[:, 0], k] - values[pairs[:, 1], k])
        per_frame_skews.append((pairs[len(adjacent):], skews[len(adjacent):]))
        if len(skews):
            v_hi = max(v_hi, max(skews.tolist()))
    return snapshots, frame_times, layouts, downs, per_frame_skews, v_hi


def _header(canvas: SvgCanvas, execution, v_hi: float) -> None:
    canvas.text(16, 22, f"mobility [{execution.source}]: "
                        f"{execution.topology.name}, n={execution.topology.n}",
                size=13, weight="bold")
    canvas.text(16, 38,
                f"edges colored by instantaneous adjacent |skew| "
                f"(0 .. {v_hi:.3g})", size=9, fill=AXIS_COLOR)


def mobility_frames(execution) -> list[str]:
    """The numbered-frame series: one standalone SVG per snapshot."""
    snapshots, frame_times, layouts, downs, skews, v_hi = _build(execution)
    frames = []
    for k, (t, topo) in enumerate(snapshots):
        canvas = SvgCanvas(_W, _H, background="#fafafa")
        _header(canvas, execution, v_hi)
        _frame_marks(
            canvas, layouts[k], skews[k], v_hi, downs[k],
            f"frame {k + 1}/{len(snapshots)}: snapshot at t={t:g}, "
            f"sampled at t={frame_times[k]:.3g}",
        )
        frames.append(canvas.to_string())
    return frames


def mobility_animation(execution, *, frame_seconds: float = 0.6) -> str:
    """One SVG cycling through every snapshot via SMIL opacity switching."""
    snapshots, frame_times, layouts, downs, skews, v_hi = _build(execution)
    total = frame_seconds * len(snapshots)
    canvas = SvgCanvas(_W, _H, background="#fafafa")
    _header(canvas, execution, v_hi)
    for k, (t, topo) in enumerate(snapshots):
        start = k / len(snapshots)
        end = (k + 1) / len(snapshots)
        canvas.group_open(klass=f"frame frame-{k}",
                          opacity=1.0 if len(snapshots) == 1 else 0.0)
        if len(snapshots) > 1:
            canvas.add(
                '<animate attributeName="opacity" calcMode="discrete" '
                f'dur="{total:g}s" repeatCount="indefinite" '
                f'values="0;1;0" '
                f'keyTimes="0;{start:.6g};{min(end, 1.0):.6g}"/>'
            )
        _frame_marks(
            canvas, layouts[k], skews[k], v_hi, downs[k],
            f"frame {k + 1}/{len(snapshots)}: snapshot at t={t:g}, "
            f"sampled at t={frame_times[k]:.3g}",
        )
        canvas.group_close()
    return canvas.to_string()
