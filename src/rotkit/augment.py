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
from typing import NamedTuple, Tuple

import numpy as np

from .core import require_rotation

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


def random_augment(r, budget: float, rng) -> Tuple[np.ndarray, AugmentOp]:
    """Randomized training policy: 50% rotate, 50% near-horizontal flip.

    The rotation angle is uniform in [-budget, budget]; the flip line is
    uniform in [pi/2 - budget, pi/2].  budget = 0 degenerates to identity
    on the rotation branch and the exact horizontal mirror on the flip
    branch.  Draw order (branch, then angle) is part of the contract so a
    seeded stream reproduces results bit-exactly.
    """
    a = require_rotation(r)
    budget = float(budget)
    if not 0.0 <= budget <= _HALF_PI:
        raise ValueError("budget must lie in [0, pi/2]")
    if rng.random() < 0.5:
        phi = float(rng.uniform(-budget, budget))
        op = AugmentOp("rotate", phi)
    else:
        theta = float(rng.uniform(_HALF_PI - budget, _HALF_PI))
        op = AugmentOp("flip", theta)
    return apply_augment(a, op), op


def pose_stream(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based random stream for record `index` under a global seed.

    Streams for distinct (seed, index) pairs are independent, so per-record
    augmentation does not depend on processing order.
    """
    key = (int(seed) & _U64) | ((int(index) & _U64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


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
