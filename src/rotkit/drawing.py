"""Euler-free projection of pose axes to 2D drawing segments, plus SVG.

The head rotation is conjugated into image coordinates (y pointing down)
by T = diag(1, -1, 1) and its columns are orthographically projected onto
the image plane: the x/y/z axis directions become the red/green/blue
lines.  `reference_draw_axis` re-implements the endpoint arithmetic of
HopeNet's widely copied draw_axis() (which negates yaw before projecting);
the two routes agree and serve as mutual cross-checks.
"""

import math
import re
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import require_rotation

AXIS_COLORS = ("#FF0000", "#00FF00", "#0000FF")
# The first two rows of T R T, as signs on the rows of R: conjugation by
# T = diag(1, -1, 1) negates each entry with exactly one index equal to 1.
_T_SIGNS = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])

Segment = Tuple[Tuple[float, float], Tuple[float, float]]
# A character outside XML 1.0's Char production, which no SVG can carry.
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


class AxisProjection(NamedTuple):
    """Projected x/y/z axis directions, each a 2-vector with norm <= 1."""

    x_axis: np.ndarray
    y_axis: np.ndarray
    z_axis: np.ndarray


@dataclass(frozen=True)
class DrawSpec:
    """Where and how large to draw: segment endpoints are center + size * axis."""

    center: Tuple[float, float]
    size: float

    def __post_init__(self):
        cx, cy = self.center
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise ValueError("center must be finite")
        if not (math.isfinite(self.size) and self.size > 0):
            raise ValueError("size must be positive")


def project_axes(r) -> AxisProjection:
    """Project the axes of a rotation onto the image plane.

    No Euler angles are involved, so rotations with ambiguous Euler
    representations still draw identically.
    """
    d = require_rotation(r)[:2] * _T_SIGNS
    return AxisProjection(*d.T.copy())


def reference_draw_axis(e) -> AxisProjection:
    """Axis endpoints computed the way HopeNet's draw_axis() does.

    Takes a pitch-yaw-roll triple, negates the yaw, and evaluates the
    projected components directly from sines and cosines.
    """
    p, y, r = (float(v) for v in e)
    for v in (p, y, r):
        if not math.isfinite(v):
            raise ValueError("angles must be finite")
    yt = -y
    x1 = math.cos(yt) * math.cos(r)
    y1 = math.cos(p) * math.sin(r) + math.sin(p) * math.sin(yt) * math.cos(r)
    x2 = -math.cos(yt) * math.sin(r)
    y2 = math.cos(p) * math.cos(r) - math.sin(p) * math.sin(yt) * math.sin(r)
    x3 = math.sin(yt)
    y3 = -math.sin(p) * math.cos(yt)
    return AxisProjection(
        np.array([x1, y1]), np.array([x2, y2]), np.array([x3, y3])
    )


def segments(proj: AxisProjection, spec: DrawSpec) -> list[Segment]:
    """Line segments for the x (red), y (green), z (blue) axes.

    A frontal pose projects z to length zero; the blue segment is kept as
    a zero-length line so the element count stays stable.
    """
    cx, cy = float(spec.center[0]), float(spec.center[1])
    return [((cx, cy), (cx + spec.size * float(x), cy + spec.size * float(y))) for x, y in proj]


def _segments_rows(a: np.ndarray, spec: DrawSpec) -> List[List[Segment]]:
    """segments(project_axes(r), spec) for each row r of an (n, 3, 3) stack.

    No SO(3) check: `draw` passes a stack from the reader, which passes
    ORTHO_TOL.  The sign flips of project_axes; endpoints are center +
    size * axis, the same two roundings as segments, so they match it
    byte for byte.
    """
    d = a[:, :2] * _T_SIGNS
    cx, cy, size = float(spec.center[0]), float(spec.center[1]), float(spec.size)
    xs = (cx + size * d[:, 0, :]).tolist()
    ys = (cy + size * d[:, 1, :]).tolist()
    return [
        [((cx, cy), (x[j], y[j])) for j in range(3)] for x, y in zip(xs, ys)
    ]


def _num(v: float) -> str:
    return repr(float(v))


def _escape_attr(text: str) -> str:
    # &, < and > as in XML character data, plus the attribute's quote, and
    # tab, LF and CR as references: attribute-value normalisation would
    # read each of them back as a space.
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;").replace("\t", "&#9;").replace("\n", "&#10;")
        .replace("\r", "&#13;")
    )


def _check_size(width: float, height: float) -> None:
    """Raise ValueError unless width and height are finite and positive."""
    if not (0 < width < math.inf and 0 < height < math.inf):  # NaN fails too
        raise ValueError("width and height must be finite and positive")


def render_svg(
    segs: Sequence[Segment],
    width: float,
    height: float,
    background_href: Optional[str] = None,
) -> str:
    """Deterministic SVG 1.1 document with one stroked line per segment.

    The optional background image is referenced by path only, never
    decoded, and must hold only characters that XML 1.0 allows (ValueError
    otherwise).  Identical inputs produce byte-identical output.
    """
    _check_size(width, height)
    if background_href is not None and _NOT_XML_CHAR.search(background_href):
        raise ValueError(f"background_href {background_href!r} is not valid XML 1.0")
    w, h = _num(width), _num(height)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
    ]
    if background_href is not None:
        href = _escape_attr(background_href)
        parts.append(
            f'  <image href="{href}" x="0" y="0" width="{w}" height="{h}"/>'
        )
    for (a, b), color in zip(segs, AXIS_COLORS):
        parts.append(
            f'  <line x1="{_num(a[0])}" y1="{_num(a[1])}" '
            f'x2="{_num(b[0])}" y2="{_num(b[1])}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
