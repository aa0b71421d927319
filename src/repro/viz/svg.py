"""A dependency-light SVG writer: the drawing substrate of :mod:`repro.viz`.

Everything this package renders — skew dashboards, mobility animations,
sweep reports, streaming-tail frames — is one SVG document assembled by
a :class:`SvgCanvas`.  Marks and text are SVG elements: plain UTF-8,
greppable, diffable next to the tables they illustrate.  A dense matrix
is one ``<image>`` holding a PNG ``data:`` URI (:meth:`SvgCanvas.image`,
a stdlib ``zlib`` + ``struct`` encoder) instead of a ``<rect>`` per cell
— a changed pixel is a changed blob, not a changed line.  Either way the
file renders in any browser and needs no third-party imaging stack, so
every renderer runs headless in CI and draws into in-memory buffers.

Escaping contract
-----------------
All user-controlled strings (node labels, topology names, spec strings)
pass through :func:`escape_text` / :func:`escape_attr`, which both
XML-escape *and* strip characters that are invalid in XML 1.0 (control
characters other than tab/newline/CR).  Tests pin this with a hypothesis
property: any label round-trips through ``xml.etree`` parsing.

Colors come from two small interpolated ramps (:func:`sequential_color`,
:func:`diverging_color`) so heatmaps and edge colorings look the same in
every renderer without an external colormap library;
:func:`sequential_rgb` reads the same ramp for whole arrays from a table.
"""

from __future__ import annotations

import base64
import functools
import io
import struct
import zlib
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SvgCanvas",
    "escape_text",
    "escape_attr",
    "sequential_color",
    "sequential_rgb",
    "diverging_color",
    "save_svg",
]

#: Characters XML 1.0 forbids outright (control chars except \t \n \r).
_INVALID_XML = {c: None for c in range(0x20) if c not in (0x09, 0x0A, 0x0D)}
_INVALID_XML[0x7F] = None


def _sanitize(value: str) -> str:
    """Drop characters that no XML document may contain."""
    return str(value).translate(_INVALID_XML)


def escape_text(value: str) -> str:
    """Escape a string for use as SVG element text."""
    return (
        _sanitize(value)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def escape_attr(value: str) -> str:
    """Escape a string for use inside a double-quoted SVG attribute."""
    return escape_text(value).replace('"', "&quot;")


def _fmt(number: float) -> str:
    """Compact coordinate formatting (SVG files get large fast)."""
    text = f"{float(number):.2f}".rstrip("0").rstrip(".")
    return text if text else "0"


# ----------------------------------------------------------------------
# color ramps (anchor-interpolated; no external colormap dependency)

#: Viridis-like anchors, dark-to-bright — perceptually ordered, so a
#: heatmap's "hotter" cells read as hotter in grayscale too.
_SEQUENTIAL = (
    (68, 1, 84),
    (65, 68, 135),
    (42, 120, 142),
    (34, 168, 132),
    (122, 209, 81),
    (253, 231, 37),
)

#: Blue - light gray - red, for signed quantities.
_DIVERGING = (
    (59, 76, 192),
    (221, 221, 221),
    (180, 4, 38),
)


def _ramp(anchors: Sequence[tuple[int, int, int]], t: float) -> str:
    if t != t:  # NaN guards: render as mid-gray, never crash a panel
        return "#999999"
    t = min(max(float(t), 0.0), 1.0)
    scaled = t * (len(anchors) - 1)
    k = min(int(scaled), len(anchors) - 2)
    frac = scaled - k
    lo, hi = anchors[k], anchors[k + 1]
    r, g, b = (round(a + (b_ - a) * frac) for a, b_ in zip(lo, hi))
    return f"#{r:02x}{g:02x}{b:02x}"


def sequential_color(t: float) -> str:
    """Map ``t in [0, 1]`` onto the sequential (magnitude) ramp."""
    return _ramp(_SEQUENTIAL, t)


def diverging_color(t: float) -> str:
    """Map ``t in [0, 1]`` onto the diverging (signed) ramp; 0.5 = zero."""
    return _ramp(_DIVERGING, t)


#: Steps of the array ramp's table.  The steepest channel climbs 131
#: levels per anchor interval: an entry is within a third of a level.
_TABLE_STEPS = 1024


@functools.lru_cache(maxsize=None)
def _sequential_table() -> np.ndarray:
    """:func:`sequential_color` at ``k / _TABLE_STEPS``, then at NaN, as
    ``uint8`` RGB rows — the interpolation itself is not written twice."""
    stops = [k / _TABLE_STEPS for k in range(_TABLE_STEPS + 1)] + [float("nan")]
    return np.array(
        [list(bytes.fromhex(sequential_color(t)[1:])) for t in stops], np.uint8)


def sequential_rgb(t: np.ndarray) -> np.ndarray:
    """:func:`sequential_color` of an array, as ``t.shape + (3,)``
    ``uint8``: within one level a channel (``t`` is rounded to 1/1024);
    out-of-range values clamp and NaN is the same mid-gray."""
    index = np.rint(np.clip(np.asarray(t, dtype=float), 0.0, 1.0) * _TABLE_STEPS)
    index = np.where(np.isnan(index), _TABLE_STEPS + 1, index)
    return _sequential_table()[index.astype(np.intp)]


def _png_chunk(kind: bytes, data: bytes) -> bytes:
    crc = zlib.crc32(kind + data)
    return struct.pack(">I", len(data)) + kind + data + struct.pack(">I", crc)


def _png_data_uri(rgb: np.ndarray) -> str:
    """A ``rows x cols x 3`` ``uint8`` array as a ``data:image/png`` URI:
    8-bit truecolor, every scanline filter 0, one ``IDAT`` at a fixed
    zlib level — the same bytes for the same array, on any zlib."""
    rows, cols, _ = rgb.shape
    scanlines = np.zeros((rows, 1 + 3 * cols), dtype=np.uint8)
    scanlines[:, 1:] = rgb.reshape(rows, -1)
    png = (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", struct.pack(">IIBBBBB", cols, rows, 8, 2, 0, 0, 0))
        + _png_chunk(b"IDAT", zlib.compress(scanlines.tobytes(), 6))
        + _png_chunk(b"IEND", b"")
    )
    return "data:image/png;base64," + base64.b64encode(png).decode("ascii")


# ----------------------------------------------------------------------
# the canvas


class SvgCanvas:
    """An append-only SVG document builder.

    Primitives append element strings; :meth:`to_string` closes the
    document.  ``klass`` arguments become ``class`` attributes so tests
    (and downstream tooling) can locate marks structurally instead of
    scraping coordinates.
    """

    FONT = "ui-monospace, 'DejaVu Sans Mono', monospace"

    def __init__(self, width: float, height: float, *, background: str = "#ffffff"):
        self.width = float(width)
        self.height = float(height)
        self._parts: list[str] = []
        if background:
            self.rect(0, 0, self.width, self.height, fill=background)

    # -- raw access ----------------------------------------------------

    def add(self, fragment: str) -> None:
        """Append a pre-built SVG fragment (caller escapes its content)."""
        self._parts.append(fragment)

    def _attrs(self, pairs: Iterable[tuple[str, object]]) -> str:
        chunks = []
        for key, value in pairs:
            if value is None:
                continue
            if isinstance(value, float):
                value = _fmt(value)
            chunks.append(f' {key}="{escape_attr(str(value))}"')
        return "".join(chunks)

    # -- primitives ----------------------------------------------------

    def rect(
        self,
        x: float,
        y: float,
        w: float,
        h: float,
        *,
        fill: str = "none",
        stroke: str | None = None,
        stroke_width: float | None = None,
        opacity: float | None = None,
        klass: str | None = None,
        title: str | None = None,
    ) -> None:
        body = (
            f"<title>{escape_text(title)}</title></rect>" if title else "</rect>"
        )
        self._parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}"'
            + self._attrs(
                [
                    ("fill", fill),
                    ("stroke", stroke),
                    ("stroke-width", stroke_width),
                    ("opacity", opacity),
                    ("class", klass),
                ]
            )
            + (">" + body if title else "/>")
        )

    def image(self, x: float, y: float, w: float, h: float, rgb: np.ndarray) -> None:
        """Stretch a ``rows x cols x 3`` ``uint8`` pixel grid over a
        rectangle: one element, hard-edged cells at any zoom."""
        self._parts.append(
            f'<image x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" preserveAspectRatio="none" '
            f'style="image-rendering: pixelated" href="{_png_data_uri(rgb)}"/>'
        )

    def line(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        *,
        stroke: str = "#000000",
        width: float = 1.0,
        dash: str | None = None,
        opacity: float | None = None,
        klass: str | None = None,
    ) -> None:
        self._parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}"'
            + self._attrs(
                [
                    ("stroke", stroke),
                    ("stroke-width", width),
                    ("stroke-dasharray", dash),
                    ("opacity", opacity),
                    ("class", klass),
                ]
            )
            + "/>"
        )

    def polyline(
        self,
        points: Sequence[tuple[float, float]],
        *,
        stroke: str = "#000000",
        width: float = 1.5,
        opacity: float | None = None,
        klass: str | None = None,
    ) -> None:
        if not points:
            return
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self._parts.append(
            f'<polyline points="{coords}" fill="none"'
            + self._attrs(
                [
                    ("stroke", stroke),
                    ("stroke-width", width),
                    ("opacity", opacity),
                    ("class", klass),
                ]
            )
            + "/>"
        )

    def circle(
        self,
        cx: float,
        cy: float,
        r: float,
        *,
        fill: str = "#000000",
        stroke: str | None = None,
        stroke_width: float | None = None,
        opacity: float | None = None,
        klass: str | None = None,
        title: str | None = None,
    ) -> None:
        body = (
            f"<title>{escape_text(title)}</title></circle>" if title else None
        )
        self._parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}"'
            + self._attrs(
                [
                    ("fill", fill),
                    ("stroke", stroke),
                    ("stroke-width", stroke_width),
                    ("opacity", opacity),
                    ("class", klass),
                ]
            )
            + (">" + body if body else "/>")
        )

    def text(
        self,
        x: float,
        y: float,
        content: str,
        *,
        size: float = 10.0,
        anchor: str = "start",
        fill: str = "#1a1a1a",
        weight: str | None = None,
        rotate: float | None = None,
        klass: str | None = None,
    ) -> None:
        transform = (
            f"rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"
            if rotate is not None
            else None
        )
        self._parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}"'
            + self._attrs(
                [
                    ("font-size", size),
                    ("font-family", self.FONT),
                    ("text-anchor", anchor),
                    ("fill", fill),
                    ("font-weight", weight),
                    ("transform", transform),
                    ("class", klass),
                ]
            )
            + f">{escape_text(content)}</text>"
        )

    def group_open(self, *, klass: str | None = None, opacity: float | None = None) -> None:
        self._parts.append(
            "<g" + self._attrs([("class", klass), ("opacity", opacity)]) + ">"
        )

    def group_close(self) -> None:
        self._parts.append("</g>")

    # -- output --------------------------------------------------------

    def to_string(self) -> str:
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">'
        )
        return head + "".join(self._parts) + "</svg>"


def save_svg(svg: str, target) -> None:
    """Write an SVG string to a path or any text/binary buffer.

    Accepts a filesystem path (``str`` / ``PathLike``) or a file-like
    object — tests render into :class:`io.StringIO` so the whole
    pipeline runs without touching disk.
    """
    if hasattr(target, "write"):
        if isinstance(target, (io.RawIOBase, io.BufferedIOBase)) or (
            hasattr(target, "mode") and "b" in getattr(target, "mode", "")
        ):
            target.write(svg.encode("utf-8"))
        else:
            target.write(svg)
        return
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(svg)
