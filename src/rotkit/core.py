"""Rotation algebra in the 300W-LP convention.

Rotations are plain 3x3 numpy arrays in SO(3) acting on column vectors
(v_rotated = R @ v).  Elemental rotations follow the left-handed rule on
each axis; pitch-yaw-roll triples compose in the intrinsic XYZ order and
roll-pitch-yaw triples in the intrinsic ZXY order.  All angles are
radians; degrees exist only at I/O boundaries.
"""

import math
from typing import NamedTuple, Tuple

import numpy as np

# Default tolerance for SO(3) membership: well above double-precision
# accumulation of chained products, well below any meaningful angle.
ORTHO_TOL = 1e-9

_HALF_PI = math.pi / 2
_TWO_PI = 2.0 * math.pi
_I3 = np.eye(3)
# Negates y: the mirror across the image's horizontal axis, and the
# world-to-screen axis change of the drawing, which is its own inverse.
_NEG_Y = np.diag([1.0, -1.0, 1.0])


class EulerPYR(NamedTuple):
    """Pitch/yaw/roll triple (intrinsic XYZ order), radians."""

    pitch: float
    yaw: float
    roll: float


class EulerRPY(NamedTuple):
    """Roll/pitch/yaw triple (intrinsic ZXY order), radians."""

    roll: float
    pitch: float
    yaw: float


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]; -pi maps to +pi.

    Values already in range are returned untouched so exact zeros and
    extraction outputs are not perturbed.
    """
    if -math.pi < theta <= math.pi:
        return theta
    return math.pi - (math.pi - theta) % _TWO_PI


def _require_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def rot_x_left(p: float) -> np.ndarray:
    """Left-handed elemental rotation about the X axis (pitch)."""
    p = _require_finite(p, "pitch")
    c, s = math.cos(p), math.sin(p)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def rot_y_left(y: float) -> np.ndarray:
    """Left-handed elemental rotation about the Y axis (yaw)."""
    y = _require_finite(y, "yaw")
    c, s = math.cos(y), math.sin(y)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def rot_z_left(r: float) -> np.ndarray:
    """Left-handed elemental rotation about the Z axis (roll)."""
    r = _require_finite(r, "roll")
    c, s = math.cos(r), math.sin(r)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


class _Convention(NamedTuple):
    """One Euler convention, read by _compose, _compose_rows and euler's
    _extract and _euler_rows.

    A triple (first, middle, last) composes as R_a @ R_b @ R_c for axes
    "abc".  Entries index the row-major matrix m: middle = asin(-m[mid]);
    first and last are atan2 of their (numerator, denominator) entries; at
    the lock, half = atan2(+/-m[lock[0]], m[lock[1]]) / 2 with + at middle =
    +pi/2, and (first, last) = split * half.
    """

    axes: str
    mid: int
    first: Tuple[int, int]
    last: Tuple[int, int]
    lock: Tuple[int, int]
    split_up: Tuple[float, float]  # middle = +pi/2
    split_down: Tuple[float, float]  # middle = -pi/2


# The Euler conventions, in the order label files list their views.
_CONVENTIONS = {
    # pitch-yaw-roll, 300W-LP: Rx(p) @ Ry(y) @ Rz(r); locked yaw fixes p -/+ r
    "pyr": _Convention("xyz", 2, (5, 8), (1, 0), (3, 4), (1.0, -1.0), (1.0, 1.0)),
    # roll-pitch-yaw, Blender/Panohead: Rz(r) @ Rx(p) @ Ry(y); locked pitch fixes y -/+ r
    "rpy": _Convention("zxy", 7, (1, 4), (6, 8), (3, 0), (-1.0, 1.0), (1.0, 1.0)),
}

# Each convention's elemental rotations, left to right, resolved once so
# that _compose costs compose_pyr no per-call lookup of the axes.
_ELEMENTALS = {
    name: tuple({"x": rot_x_left, "y": rot_y_left, "z": rot_z_left}[axis] for axis in conv.axes)
    for name, conv in _CONVENTIONS.items()
}


def _compose(e, convention: str) -> np.ndarray:
    f, g, h = _ELEMENTALS[convention]
    a, b, c = e
    return f(a) @ g(b) @ h(c)


def compose_pyr(e) -> np.ndarray:
    """Rotation matrix of a pitch-yaw-roll triple: Rx(p) @ Ry(y) @ Rz(r)."""
    return _compose(e, "pyr")


def compose_rpy(e) -> np.ndarray:
    """Rotation matrix of a roll-pitch-yaw triple: Rz(r) @ Rx(p) @ Ry(y)."""
    return _compose(e, "rpy")


def _det(m):
    # Determinant by cofactor expansion along the first row, given the
    # row-major entries m[0..8]: floats for one matrix, or arrays holding
    # that entry of each matrix of a stack.
    return (
        m[0] * (m[4] * m[8] - m[5] * m[7])
        - m[1] * (m[3] * m[8] - m[5] * m[6])
        + m[2] * (m[3] * m[7] - m[4] * m[6])
    )


def is_rotation(m, tol: float = ORTHO_TOL) -> bool:
    """True iff m is 3x3 with orthogonality residual and |det - 1| <= tol.

    Non-finite entries make the residual NaN, so they fail the check.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.asarray(m, dtype=float)
    if a.shape != (3, 3):
        return False
    resid = float(np.abs(a @ a.T - _I3).max())
    return resid <= tol and abs(_det(a.ravel().tolist()) - 1.0) <= tol


def require_rotation(m, tol: float = ORTHO_TOL, what: str = "input") -> np.ndarray:
    """Return m as a float array, raising ValueError if it is not in SO(3)."""
    a = np.asarray(m, dtype=float)
    if not is_rotation(a, tol):
        raise ValueError(f"{what} is not a rotation matrix within tol={tol:g}")
    return a


def geodesic_distance(a, b, tol: float = ORTHO_TOL) -> float:
    """Rotation angle separating two rotations: arccos((tr(a @ b^T) - 1) / 2).

    Both inputs must pass the SO(3) check at tol.  The angle is evaluated
    in a stable half-angle form (see _geodesic_rows), so identical inputs
    give exactly 0 and small angles keep full relative precision.  Result
    is in [0, pi].
    """
    ra = require_rotation(a, tol, what="first argument")
    rb = require_rotation(b, tol, what="second argument")
    return float(_geodesic_rows(ra[None], rb[None])[0])


# Batched kernels over (n, 3, 3) stacks for the label readers, writers and
# CLI commands.  Products are stacked `@`, one 3x3 product per row, and
# sines and cosines come from `math`, so rows match the scalar kernels.
# Residuals and distances may still round differently in the last bits, so
# callers that need the scalar verdict exactly leave a margin.

# Fraction of a tolerance that a batched residual or distance must keep to
# spare before the batch verdict stands in for the scalar one.
_BATCH_MARGIN = 1e-6


def _sum9(x: np.ndarray) -> np.ndarray:
    # Fixed summation order, so a row's sum does not depend on its stack.
    r = x[:, :, 0] + x[:, :, 1] + x[:, :, 2]
    return r[:, 0] + r[:, 1] + r[:, 2]


def _geodesic_rows(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Geodesic between paired rows of two (n, 3, 3) rotation stacks; no SO(3) check.

    theta = 2 atan2(sin(theta/2), cos(theta/2)) with, for rotations,
    sin^2 = |a - b|_F^2 / 8 and cos^2 = (1 + tr(a b^T)) / 4.  The sine comes
    from the difference itself, so there is no arccos floor near 0.
    """
    d = ra - rb
    s2 = _sum9(d * d) / 8.0
    c2 = (1.0 + _sum9(ra * rb)) / 4.0
    return 2.0 * np.arctan2(np.sqrt(s2), np.sqrt(np.maximum(0.0, c2)))


def _is_rotation_batch(a: np.ndarray, tol: float) -> np.ndarray:
    """Boolean mask over an (n, 3, 3) float stack: is_rotation on each matrix."""
    resid = np.abs(a @ a.swapaxes(1, 2) - _I3).max(axis=(1, 2), initial=0.0)
    return (resid <= tol) & (np.abs(_det(a.reshape(-1, 9).T) - 1.0) <= tol)


def _all_rotations(a: np.ndarray, tol: float = ORTHO_TOL) -> bool:
    """True when every row of an (n, 3, 3) stack passes is_rotation at tol
    with _BATCH_MARGIN to spare.  False means some row may fail the scalar
    check; callers then take the scalar path, which raises its own error.
    """
    if a.ndim != 3 or a.shape[1:] != (3, 3):
        return False
    return bool(_is_rotation_batch(a, tol * (1.0 - _BATCH_MARGIN)).all())


def _require_rotations(a: np.ndarray) -> np.ndarray:
    """require_rotation on every row of an (n, 3, 3) stack; returns the stack.

    One batched check (_all_rotations) decides for the whole stack.  Only
    when it fails are the rows checked one by one, so the first row outside
    SO(3) raises require_rotation's own error.
    """
    if not _all_rotations(a):
        for r in a:
            require_rotation(r)
    return a.reshape(-1, 3, 3)


def _geodesic_batch(a, b, tol: float) -> np.ndarray:
    """geodesic_distance between paired rows of two (n, 3, 3) stacks; (n,)."""
    stacks = []
    for m, what in ((a, "first argument"), (b, "second argument")):
        m = np.asarray(m, dtype=float)
        if m.ndim != 3 or m.shape[1:] != (3, 3):
            raise ValueError(f"{what} is not an (n, 3, 3) stack: shape {m.shape}")
        ok = _is_rotation_batch(m, tol)
        if not ok.all():
            raise ValueError(
                f"{what} row {int(np.argmin(ok))} is not a rotation matrix within tol={tol:g}"
            )
        stacks.append(m)
    if len(stacks[0]) != len(stacks[1]):
        raise ValueError(f"stacks differ in length: {len(stacks[0])} vs {len(stacks[1])}")
    return _geodesic_rows(*stacks)


# Row-major slots of cos, cos, +sin, -sin and 1 in each left-handed
# elemental rotation (see rot_x_left, rot_y_left, rot_z_left).
_ELEMENTAL_SLOTS = {"x": (4, 8, 5, 7, 0), "y": (0, 8, 6, 2, 4), "z": (0, 4, 1, 3, 8)}


def _rot_batch(axis: str, theta: np.ndarray) -> np.ndarray:
    c1, c2, plus, minus, one = _ELEMENTAL_SLOTS[axis]
    angles = theta.tolist()
    c, s = np.array(list(map(math.cos, angles))), np.array(list(map(math.sin, angles)))
    out = np.zeros((len(theta), 9))
    out[:, c1] = c
    out[:, c2] = c
    out[:, plus] = s
    out[:, minus] = -s
    out[:, one] = 1.0
    return out.reshape(-1, 3, 3)


def _compose_rows(angles: np.ndarray, convention: str) -> np.ndarray:
    """_compose over an (n, 3) array of finite angle rows; (n, 3, 3).

    Row for row the same bytes as compose_pyr ("pyr") or compose_rpy
    ("rpy"), signed zeros included.
    """
    (i, a), (j, b), (k, c) = zip(_CONVENTIONS[convention].axes, angles.T)
    return _rot_batch(i, a) @ _rot_batch(j, b) @ _rot_batch(k, c)


def _quat_to_matrix(w: float, x: float, y: float, z: float) -> np.ndarray:
    # Unit quaternion (w, x, y, z) to its rotation matrix. Internal only:
    # quaternions are not part of the public representation.
    return np.array(
        [
            [w * w + x * x - y * y - z * z, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), w * w - x * x + y * y - z * z, 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    )
