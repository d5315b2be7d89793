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

from ._conventions import _CONVENTIONS

# Default tolerance for SO(3) membership: well above double-precision
# accumulation of chained products, well below any meaningful angle.
ORTHO_TOL = 1e-9
# SO(3) tolerance of rotations from outside data (label files, label
# records, camera calibrations), which other tooling may have rounded; one
# that fails ORTHO_TOL is replaced by its nearest rotation (_repair).
FILE_ORTHO_TOL = 1e-6

_HALF_PI = math.pi / 2
_TWO_PI = 2.0 * math.pi


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


def _mul(a, b) -> list:
    # Product of 3x3 matrices given as row-major entries, floats or columns
    # as in _det; each entry sums left to right, the same bytes on any BLAS.
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return [
        a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
    ]


def _elemental(axis: str, c, s) -> tuple:
    # Row-major entries of the left-handed elemental rotation about `axis`
    # with cosine c and sine s, floats or columns as in _mul.
    if axis == "x":
        return (1.0, 0.0, 0.0, 0.0, c, s, 0.0, -s, c)
    if axis == "y":
        return (c, 0.0, -s, 0.0, 1.0, 0.0, s, 0.0, c)
    return (c, s, 0.0, -s, c, 0.0, 0.0, 0.0, 1.0)


def _elemental_at(axis: str, theta) -> tuple:
    theta = float(theta)
    if not math.isfinite(theta):
        name = {"x": "pitch", "y": "yaw", "z": "roll"}[axis]
        raise ValueError(f"{name} must be finite, got {theta!r}")
    return _elemental(axis, math.cos(theta), math.sin(theta))


def _matrix(entries) -> np.ndarray:
    return np.array(entries).reshape(3, 3)


def rot_x_left(p: float) -> np.ndarray:
    """Left-handed elemental rotation about the X axis (pitch)."""
    return _matrix(_elemental_at("x", p))


def rot_y_left(y: float) -> np.ndarray:
    """Left-handed elemental rotation about the Y axis (yaw)."""
    return _matrix(_elemental_at("y", y))


def rot_z_left(r: float) -> np.ndarray:
    """Left-handed elemental rotation about the Z axis (roll)."""
    return _matrix(_elemental_at("z", r))


def _compose(e, convention: str) -> np.ndarray:
    a, b, c = e
    f, g, h = map(_elemental_at, _CONVENTIONS[convention].axes, (a, b, c))
    return _matrix(_mul(_mul(f, g), h))


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


def _so3_gaps(m) -> list:
    # |m m^T - I| entry by entry, then |det m - 1|, for entries m as in _mul.
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    p = _mul(m, (m0, m3, m6, m1, m4, m7, m2, m5, m8))
    p[0], p[4], p[8] = p[0] - 1.0, p[4] - 1.0, p[8] - 1.0
    return [abs(v) for v in p] + [abs(_det(m) - 1.0)]


def is_rotation(m, tol: float = ORTHO_TOL) -> bool:
    """True iff m is 3x3 with orthogonality residual and |det - 1| <= tol.

    Non-finite entries make the residual NaN, so they fail the check.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.asarray(m, dtype=float)
    if a.shape != (3, 3):
        return False
    return all([gap <= tol for gap in _so3_gaps(a.ravel().tolist())])


def require_rotation(m, tol: float = ORTHO_TOL, what: str = "input") -> np.ndarray:
    """Return m as a float array, raising ValueError if it is not in SO(3)."""
    a = np.asarray(m, dtype=float)
    if not is_rotation(a, tol):
        raise ValueError(f"{what} is not a rotation matrix within tol={tol:g}")
    return a


def geodesic_distance(a, b, tol: float = ORTHO_TOL) -> float:
    """Rotation angle separating two rotations: arccos((tr(a @ b^T) - 1) / 2).

    Both inputs must pass the SO(3) check at tol.  The angle is evaluated
    as 2 atan2(sin, cos) of the half angle (see _half_angle), so identical
    inputs give exactly 0, and both small angles and angles near pi keep
    full precision.  Result is in [0, pi].
    """
    ra = require_rotation(a, tol, what="first argument")
    rb = require_rotation(b, tol, what="second argument")
    return _half_angle(*_geodesic_terms(ra.ravel().tolist(), rb.ravel().tolist()))


def _geodesic_terms(a, b) -> tuple:
    # For entries a and b as in _mul: |a - b|_F^2, the diagonal of
    # p = a b^T, and the differences p21 - p12, p02 - p20, p10 - p01.
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    p = _mul(a, (b0, b3, b6, b1, b4, b7, b2, b5, b8))
    f = [(u - v) * (u - v) for u, v in zip(a, b)]
    frob2 = ((f[0] + f[1] + f[2]) + (f[3] + f[4] + f[5])) + (f[6] + f[7] + f[8])
    return frob2, p[0], p[4], p[8], p[7] - p[5], p[2] - p[6], p[3] - p[1]


def _half_angle(frob2, p0, p4, p8, v0, v1, v2) -> float:
    """The angle 2 atan2(sin, cos) of theta/2 from _geodesic_terms' values.

    For rotations sin^2 = |a - b|_F^2 / 8, with no arccos floor near 0.
    Up to pi/2, cos^2 = (1 + tr p) / 4; beyond it that form keeps only
    about sqrt(ulp) near pi, so cos is |w| of the quaternion of p, from
    Shepperd's (1978) branch of its largest vector component q_i:
    4 q_i^2 = 1 + 2 p_ii - tr p and 4 w q_i = v_i.  Python floats, with
    math.atan2 (numpy's SIMD loops may differ in the last bit).
    """
    tr = (p0 + p4) + p8
    s2, c2 = frob2 / 8.0, (1.0 + tr) / 4.0
    if s2 <= c2:
        c = math.sqrt(c2)
    else:
        if p0 >= p4 and p0 >= p8:
            q, v = p0, v0
        elif p4 >= p8:
            q, v = p4, v1
        else:
            q, v = p8, v2
        c = abs(v) / (2.0 * math.sqrt(1.0 + 2.0 * q - tr))
    return 2.0 * math.atan2(math.sqrt(s2), c)


# Batched kernels over (n, 3, 3) stacks for the label readers, writers and
# CLI commands.  Each evaluates the scalar kernel's expression (_mul,
# _so3_gaps, _det, _geodesic_terms) on the columns a.reshape(-1, 9).T, with
# sines, cosines and arctangents from `math`: every row, residual and
# distance equals the scalar one byte for byte, and no product goes through
# BLAS.


def _cos_sin(theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # math.cos and math.sin of each angle (numpy's may differ in the last bit)
    t = theta.tolist()
    return np.array(list(map(math.cos, t))), np.array(list(map(math.sin, t)))


def _geodesic_rows(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Geodesic between paired rows of two (n, 3, 3) rotation stacks; no SO(3) check.

    _geodesic_terms on the columns, then _half_angle on each row's floats.
    """
    terms = _geodesic_terms(ra.reshape(-1, 9).T, rb.reshape(-1, 9).T)
    return np.array(list(map(_half_angle, *(t.tolist() for t in terms))), dtype=float)


def _is_rotation_batch(a: np.ndarray, tol: float) -> np.ndarray:
    """Boolean mask over an (n, 3, 3) float stack: is_rotation on each matrix."""
    return np.logical_and.reduce([gap <= tol for gap in _so3_gaps(a.reshape(-1, 9).T)])


def _require_rotations(a: np.ndarray) -> np.ndarray:
    """require_rotation on every row of an (n, 3, 3) stack, as one batched
    check with require_rotation's message; returns the stack."""
    if a.ndim != 3 or a.shape[1:] != (3, 3) or not _is_rotation_batch(a, ORTHO_TOL).all():
        raise ValueError(f"input is not a rotation matrix within tol={ORTHO_TOL:g}")
    return a


def _nearest_rotation(m) -> list:
    """Two Newton-Schulz steps X <- X (3I - X^T X) / 2 on entries m as in
    _mul (Bjorck and Bowie, 1971): from SO(3) gaps up to about 1e-6, as
    label files admit, the nearest rotation (Higham, 1986) to rounding."""
    for _ in range(2):
        m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
        g = _mul((m0, m3, m6, m1, m4, m7, m2, m5, m8), m)
        h = [-v for v in g]
        h[0], h[4], h[8] = 3.0 - g[0], 3.0 - g[4], 3.0 - g[8]
        m = [0.5 * v for v in _mul(m, h)]
    return m


def _repair(rotations: np.ndarray, gaps: np.ndarray) -> None:
    """Replace in place each row of an (n, 3, 3) stack whose worst SO(3)
    gap (gaps, one per row, each within FILE_ORTHO_TOL) fails ORTHO_TOL by
    its nearest rotation: the bytes of _nearest_rotation on that row."""
    loose = gaps > ORTHO_TOL
    if loose.any():
        flat = rotations[loose].reshape(-1, 9)
        rotations[loose] = np.stack(_nearest_rotation(flat.T), axis=-1).reshape(-1, 3, 3)


def _compose_rows(angles: np.ndarray, convention: str) -> np.ndarray:
    """_compose over an (n, 3) array of finite angle rows; (n, 3, 3).

    Row for row the same bytes as compose_pyr ("pyr") or compose_rpy
    ("rpy"), signed zeros included.
    """
    f, g, h = (
        _elemental(axis, *_cos_sin(theta))
        for axis, theta in zip(_CONVENTIONS[convention].axes, angles.T)
    )
    return np.stack(_mul(_mul(f, g), h), axis=-1).reshape(-1, 3, 3)


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
