"""Label-space transforms for 2D geometric image augmentations.

Rotating an image by phi (counter-clockwise as seen on screen) or flipping
it across the line L_theta through the origin at angle theta from the
horizontal axis maps a head rotation to a new rotation in closed form.
Both transforms are supplied together with the matching pixel-coordinate
maps so labels and pixels stay consistent, plus the randomized policy used
for training-time augmentation (half image rotations within +/-budget,
half flips across a near-vertical mirror line in [pi/2 - budget, pi/2]).
"""

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .core import _require_rotations, require_rotation

_HALF_PI = math.pi / 2
_U64 = (1 << 64) - 1

# Intrinsic X-axis flip: the second factor of every label flip, and the
# left factor of the horizontal mirror (vertical mirror line).
_FLIP_X = np.diag([-1.0, 1.0, 1.0])
_NEG_XY = np.diag([-1.0, -1.0, 1.0])
_MIRROR_HORIZONTAL = np.diag([1.0, -1.0, 1.0])
_SWAP_XY = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

COROLLARY_CASES = ("horizontal", "vertical", "both_axes", "diagonal", "rot45")


class PixelPoint(NamedTuple):
    """Continuous image coordinates, origin top-left, y pointing down."""

    x: float
    y: float


@dataclass(frozen=True)
class AugmentOp:
    """One 2D geometric op: rotate by `angle` or flip across L_angle.

    For flips the line has period pi, so any finite angle is accepted.
    """

    kind: str
    angle: float

    def __post_init__(self):
        if self.kind not in ("rotate", "flip"):
            raise ValueError(f"unknown augment kind {self.kind!r}")
        if not math.isfinite(self.angle):
            raise ValueError("augment angle must be finite")

    def as_dict(self) -> dict:
        return {"kind": self.kind, "angle_deg": math.degrees(self.angle)}

    @classmethod
    def from_dict(cls, d: dict) -> "AugmentOp":
        return cls(str(d["kind"]), math.radians(float(d["angle_deg"])))


def rotate_image_label(r, phi: float) -> np.ndarray:
    """Rotation label after rotating the image by phi counter-clockwise."""
    a = require_rotation(r)
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    c, s = math.cos(phi), math.sin(phi)
    m = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return m @ a


def flip_image_label(r, theta: float) -> np.ndarray:
    """Rotation label after flipping the image across the line L_theta.

    Both factors have determinant -1, so the product stays in SO(3).
    theta = pi/2 is the horizontal (left-right) mirror, theta = 0 the
    vertical one.
    """
    a = require_rotation(r)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    m = np.array([[c, s, 0.0], [s, -c, 0.0], [0.0, 0.0, 1.0]])
    return m @ a @ _FLIP_X


def corollary_case(r, case: str) -> np.ndarray:
    """Exact closed forms of the named special cases.

    horizontal/vertical/diagonal are flips at theta = pi/2, 0 and pi/4;
    both_axes composes the two perpendicular flips; rot45 rotates the
    image by pi/4.
    """
    a = require_rotation(r)
    if case == "horizontal":
        return _FLIP_X @ a @ _FLIP_X
    if case == "vertical":
        return _MIRROR_HORIZONTAL @ a @ _FLIP_X
    if case == "both_axes":
        return _NEG_XY @ a
    if case == "diagonal":
        return _SWAP_XY @ a @ _FLIP_X
    if case == "rot45":
        return rotate_image_label(a, math.pi / 4)
    raise ValueError(f"unknown corollary case {case!r}; expected one of {COROLLARY_CASES}")


def apply_augment(r, op: AugmentOp) -> np.ndarray:
    """Apply one AugmentOp to a rotation label."""
    if op.kind == "rotate":
        return rotate_image_label(r, op.angle)
    return flip_image_label(r, op.angle)


def _check_budget(budget) -> float:
    budget = float(budget)
    if not 0.0 <= budget <= _HALF_PI:
        raise ValueError("budget must lie in [0, pi/2]")
    return budget


def random_augment(r, budget: float, rng) -> Tuple[np.ndarray, AugmentOp]:
    """Randomized training policy: 50% rotate, 50% near-horizontal flip.

    The rotation angle is uniform in [-budget, budget]; the flip line is
    uniform in [pi/2 - budget, pi/2].  budget = 0 degenerates to identity
    on the rotation branch and the exact horizontal mirror on the flip
    branch.  Draw order (branch, then angle) is part of the contract so a
    seeded stream reproduces results bit-exactly.
    """
    a = require_rotation(r)
    budget = _check_budget(budget)
    if rng.random() < 0.5:
        phi = float(rng.uniform(-budget, budget))
        op = AugmentOp("rotate", phi)
    else:
        theta = float(rng.uniform(_HALF_PI - budget, _HALF_PI))
        op = AugmentOp("flip", theta)
    return apply_augment(a, op), op


def pose_stream(seed: int, index: int = 0) -> "np.random.Generator":
    """Counter-based random stream for record `index` under a global seed.

    Streams for distinct (seed, index) pairs are independent, so per-record
    augmentation does not depend on processing order.
    """
    key = (int(seed) & _U64) | ((int(index) & _U64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _rotate_rows(a: np.ndarray, phis: list) -> np.ndarray:
    """rotate_image_label on each row of an (n, 3, 3) stack, row i by phis[i].

    No SO(3) check.  The image rotations are built from math.cos/math.sin
    and applied with one stacked product, so rows match the scalar
    function byte for byte.
    """
    c = np.array(list(map(math.cos, phis)))
    s = np.array(list(map(math.sin, phis)))
    m = np.zeros((len(phis), 9))
    m[:, 0], m[:, 1], m[:, 3], m[:, 4], m[:, 8] = c, -s, s, c, 1.0
    return m.reshape(-1, 3, 3) @ a


def _flip_rows(a: np.ndarray, thetas: list) -> np.ndarray:
    """flip_image_label on each row of an (n, 3, 3) stack, row i across L_thetas[i].

    No SO(3) check; byte for byte the scalar function (see _rotate_rows).
    """
    doubled = [2.0 * t for t in thetas]
    c = np.array(list(map(math.cos, doubled)))
    s = np.array(list(map(math.sin, doubled)))
    m = np.zeros((len(thetas), 9))
    m[:, 0], m[:, 1], m[:, 3], m[:, 4], m[:, 8] = c, s, s, -c, 1.0
    return m.reshape(-1, 3, 3) @ a @ _FLIP_X


def _random_ops(budget: float, seed: int, start: int, n: int, multiplier: int) -> List[AugmentOp]:
    # The ops random_augment draws for records start..start+n-1, `multiplier`
    # per record from pose_stream(seed, index), in record-major order.  One
    # Philox bit generator is re-keyed per record instead of building a
    # Generator; each draw is Generator.random's (raw >> 11) * 2**-53,
    # scaled as Generator.uniform does.
    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    raws = np.empty((n, 2 * multiplier), dtype=np.uint64)
    for i in range(n):
        state["state"]["key"] = np.array([int(seed) & _U64, (start + i) & _U64], dtype=np.uint64)
        state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
        state["buffer_pos"] = 4
        bitgen.state = state
        raws[i] = bitgen.random_raw(2 * multiplier)
    u = ((raws >> np.uint64(11)).astype(float) * 2.0**-53).reshape(-1, 2).tolist()
    rotate_lo, flip_lo = -budget, _HALF_PI - budget
    rotate_span, flip_span = budget - rotate_lo, _HALF_PI - flip_lo
    return [
        AugmentOp("rotate", rotate_lo + rotate_span * v)
        if b < 0.5
        else AugmentOp("flip", flip_lo + flip_span * v)
        for b, v in u
    ]


def _augment_rows(
    a: np.ndarray,
    op: Optional[AugmentOp],
    budget: float,
    seed: int,
    start: int,
    multiplier: int,
) -> Tuple[np.ndarray, List[AugmentOp]]:
    """Augment each row of an (n, 3, 3) stack `multiplier` times.

    With op given, every output is apply_augment(row, op); otherwise the
    outputs of row i are random_augment(row, budget, pose_stream(seed,
    start + i)), drawn in order.  Returns the (n * multiplier, 3, 3) stack
    and the ops, in record-major order, byte for byte those of the scalar
    functions, which also raise the same errors first.
    """
    if op is None:
        # random_augment checks its rotation before the budget
        _require_rotations(a[:1])
        budget = _check_budget(budget)
        ops = _random_ops(budget, seed, start, len(a), multiplier)
    else:
        ops = [op] * (len(a) * multiplier)
    rows = np.repeat(_require_rotations(a), multiplier, axis=0)
    out = np.empty_like(rows)
    kinds = np.array([o.kind == "rotate" for o in ops], dtype=bool)
    angles = [o.angle for o in ops]
    rot = np.flatnonzero(kinds)
    flip = np.flatnonzero(~kinds)
    out[rot] = _rotate_rows(rows[rot], [angles[k] for k in rot.tolist()])
    out[flip] = _flip_rows(rows[flip], [angles[k] for k in flip.tolist()])
    return out, ops


def map_pixel(op: AugmentOp, pt, width: float, height: float) -> PixelPoint:
    """Move a pixel the way `op` moves the image, about the image center.

    Screen coordinates have y pointing down, so a visually counter-
    clockwise rotation by phi and a flip across the visually measured
    L_theta use the y-negated forms of the usual plane transforms.
    """
    if width <= 0 or height <= 0:
        raise ValueError("width and height must be positive")
    x, y = float(pt[0]), float(pt[1])
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    dx, dy = x - cx, y - cy
    if op.kind == "rotate":
        c, s = math.cos(op.angle), math.sin(op.angle)
        nx, ny = c * dx + s * dy, -s * dx + c * dy
    else:
        c, s = math.cos(2.0 * op.angle), math.sin(2.0 * op.angle)
        nx, ny = c * dx - s * dy, -s * dx - c * dy
    return PixelPoint(nx + cx, ny + cy)
