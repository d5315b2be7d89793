"""Label-space transforms for 2D geometric image augmentations.

Rotating an image by phi (counter-clockwise as seen on screen) or flipping
it across the line L_theta through the origin at angle theta from the
horizontal axis maps a head rotation to a new rotation in closed form.
Both transforms are supplied together with the matching pixel-coordinate
maps so labels and pixels stay consistent, plus the randomized policy used
for training-time augmentation (half image rotations within +/-budget,
half flips across a near-vertical mirror line in [pi/2 - budget, pi/2]).

AugmentOp and the functions above are the scalar API.  The batch path
carries a chunk's ops as two columns, a rotate mask and the angles, through
one image-op kernel, _image_rows, builds no AugmentOp and checks nothing:
the reader, the CLI (flags) and coverage.densify_rolls check its inputs.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .core import _HALF_PI, _cos_sin, _matrix, _mul, _require_int, require_rotation
from .drawing import _check_size

_U64 = (1 << 64) - 1

# The corollary cases as exact image ops (cosine, sine, sign; _image_op):
# flips across L_pi/2, L_0, L_pi/4, and rotations by pi (two flips) and pi/4.
_COROLLARY_OPS = {
    "horizontal": (-1.0, 0.0, -1.0),
    "vertical": (1.0, 0.0, -1.0),
    "both_axes": (-1.0, 0.0, 1.0),
    "diagonal": (0.0, 1.0, -1.0),
    "rot45": (math.cos(math.pi / 4), math.sin(math.pi / 4), 1.0),
}
COROLLARY_CASES = tuple(_COROLLARY_OPS)


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


def _image_op(a, c, s, sign):
    # The label with row-major entries a (as in _mul) after rotating the
    # image by the angle of cosine c and sine s (sign 1.0), or flipping it
    # across the line at half that angle (sign -1.0): a reflection, then
    # the intrinsic X-axis flip of the first column.  Signs are exact.
    m = _mul((c, -sign * s, 0.0, s, sign * c, 0.0, 0.0, 0.0, 1.0), a)
    m[0], m[3], m[6] = sign * m[0], sign * m[3], sign * m[6]
    return m


def rotate_image_label(r, phi: float) -> np.ndarray:
    """Rotation label after rotating the image by phi counter-clockwise."""
    a = require_rotation(r)
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    return _matrix(_image_op(a.ravel().tolist(), math.cos(phi), math.sin(phi), 1.0))


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
    return _matrix(_image_op(a.ravel().tolist(), c, s, -1.0))


def corollary_case(r, case: str) -> np.ndarray:
    """Exact closed forms of the named special cases.

    horizontal/vertical/diagonal are flips at theta = pi/2, 0 and pi/4;
    both_axes composes the two perpendicular flips; rot45 rotates the
    image by pi/4.
    """
    a = require_rotation(r)
    if case not in _COROLLARY_OPS:
        raise ValueError(f"unknown corollary case {case!r}; expected one of {COROLLARY_CASES}")
    return _matrix(_image_op(a.ravel().tolist(), *_COROLLARY_OPS[case]))


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
    augmentation does not depend on processing order.  Both must be
    integers (_require_int).
    """
    seed, index = _require_int(seed, "seed"), _require_int(index, "index")
    key = (seed & _U64) | ((index & _U64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _image_rows(a: np.ndarray, rotate: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """One image op on each row of an (n, 3, 3) stack: rotate_image_label
    by angles[i] where rotate[i], else flip_image_label across L_angles[i].

    No SO(3) check.  _image_op on columns, with the cosines and sines from
    math.cos/math.sin, so rows match the scalar functions byte for byte.
    """
    # the plane angle of each image op: phi, or 2 theta for a flip
    c, s = _cos_sin(np.where(rotate, angles, 2.0 * angles))
    m = _image_op(a.reshape(-1, 9).T, c, s, np.where(rotate, 1.0, -1.0))
    return np.stack(m, axis=-1).reshape(-1, 3, 3)


# Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
# 3", SC 2011), as numpy's Philox bit generator runs it: the round
# multipliers and the Weyl key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _mulhilo(a: int, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # The high and low words of the 128-bit product of the 64-bit constant
    # a and each uint64 of b, the high word from 32-bit halves.
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LO32, b >> _32
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> _32) + (lh & _LO32) + (hl & _LO32)
    return a_hi * b_hi + (lh >> _32) + (hl >> _32) + (mid >> _32), np.uint64(a) * b


def _philox_raw(seed: int, start: int, n: int, count: int) -> np.ndarray:
    """Row i is pose_stream(seed, start + i).bit_generator.random_raw(count).

    Philox(key=k) starts at counter 0 and increments it before each block
    of four words, so block j (from 1) is the 10-round Philox4x64 of
    counter (j, 0, 0, 0) under the key words (seed, start + i), all mod
    2**64.  Computed for every record at once in uint64 arithmetic.
    """
    blocks = -(-count // 4)
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), (n, 1))
    c1, c2, c3 = (np.zeros((n, blocks), dtype=np.uint64) for _ in range(3))
    index = (np.arange(n, dtype=np.uint64) + np.uint64(start & _U64))[:, None]
    for r in range(10):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & _U64)
        k1 = index + np.uint64(r * _PHILOX_W[1] & _U64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(n, 4 * blocks)[:, :count]


def _random_ops(
    budget: float, seed: int, start: int, n: int, multiplier: int
) -> Tuple[np.ndarray, np.ndarray]:
    # The ops random_augment draws for records start..start+n-1, `multiplier`
    # per record from pose_stream(seed, index), in record-major order, as a
    # rotate mask and the angles.  Each draw is Generator.random's
    # (raw >> 11) * 2**-53, scaled as Generator.uniform does; budget is checked.
    raws = _philox_raw(int(seed) & _U64, start, n, 2 * multiplier)
    branch, v = ((raws >> np.uint64(11)).astype(float) * 2.0**-53).reshape(-1, 2).T
    rotate_lo, flip_lo = -budget, _HALF_PI - budget
    rotate_span, flip_span = budget - rotate_lo, _HALF_PI - flip_lo
    rotate = branch < 0.5
    return rotate, np.where(rotate, rotate_lo + rotate_span * v, flip_lo + flip_span * v)


def map_pixel(op: AugmentOp, pt, width: float, height: float) -> PixelPoint:
    """Move a pixel the way `op` moves the image, about the image center.

    Screen coordinates have y pointing down, so a visually counter-
    clockwise rotation by phi and a flip across the visually measured
    L_theta use the y-negated forms of the usual plane transforms.
    """
    _check_size(width, height)
    x, y = float(pt[0]), float(pt[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("point must be finite")
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    dx, dy = x - cx, y - cy
    if op.kind == "rotate":
        c, s = math.cos(op.angle), math.sin(op.angle)
        nx, ny = c * dx + s * dy, -s * dx + c * dy
    else:
        c, s = math.cos(2.0 * op.angle), math.sin(2.0 * op.angle)
        nx, ny = c * dx - s * dy, -s * dx - c * dy
    x, y = nx + cx, ny + cy
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("moved point must be finite")
    return PixelPoint(x, y)
