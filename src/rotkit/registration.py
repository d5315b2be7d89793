"""Closed-form rigid registration and Panoptic camera composition.

Horn's absolute-orientation method recovers the least-squares rotation
between two corresponded point sets from the maximal eigenvector of a 4x4
symmetric quaternion matrix.  The Panoptic composition chains a fixed
reference rotation with a camera extrinsic and a Horn-recovered rotation
to express head pose in image space.  A camera extrinsic is admitted as
a label file's rotation is: checked at FILE_ORTHO_TOL, and replaced by its
nearest rotation if it fails ORTHO_TOL.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (FILE_ORTHO_TOL, ORTHO_TOL, _matrix, _mul, _nearest_rotation,
                   _quat_to_matrix, is_rotation, require_rotation)
from .eigen import symmetric_eigh

E_REF = np.diag([1.0, -1.0, -1.0])

# Relative eigenvalue cutoff for "the source points span a plane".
_RANK_RTOL = 1e-12


class DegenerateGeometryError(ValueError):
    """Source geometry does not pin down a unique rotation."""


def _extrinsic(m, what: str) -> np.ndarray:
    # m as given if it passes ORTHO_TOL, else the bytes of core._repair
    a = np.asarray(m, dtype=float)
    if is_rotation(a):
        return a
    a = require_rotation(a, FILE_ORTHO_TOL, what)
    return _matrix(_nearest_rotation(a.ravel().tolist()))


def _as_points(obj, what: str) -> np.ndarray:
    pts = getattr(obj, "points", obj)
    a = np.asarray(pts, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"{what} must be an (n, 3) point array")
    if a.shape[0] < 3:
        raise ValueError(f"{what} needs at least 3 points")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


def _owned(a: np.ndarray) -> np.ndarray:
    # a read-only copy of a checked array, so that a later edit of the
    # caller's array cannot reach a value that was checked once
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LandmarkSet:
    """A corresponded 3D point set (n >= 3, not all collinear), kept as a
    read-only copy."""

    points: np.ndarray

    def __post_init__(self):
        a = _owned(_as_points(self.points, "points"))
        object.__setattr__(self, "points", a)
        if not _spans_plane(a - a.mean(axis=0)):
            raise DegenerateGeometryError("points are collinear")


@dataclass(frozen=True)
class CameraExtrinsic:
    """The 3x3 rotation block of a camera extrinsic matrix, repaired if
    loose as the module docstring says, kept as a read-only copy."""

    rotation_part: np.ndarray

    def __post_init__(self):
        a = _owned(_extrinsic(self.rotation_part, "rotation_part"))
        object.__setattr__(self, "rotation_part", a)


def _spans_plane(centered: np.ndarray) -> bool:
    scatter = centered.T @ centered
    scale = float(np.abs(scatter).max())
    if scale == 0.0:
        return False
    values, _ = symmetric_eigh(scatter / scale)
    return values[1] > _RANK_RTOL


def horn_rotation(src, dst) -> np.ndarray:
    """Least-squares rotation R minimizing sum ||dst_i - R src_i||^2.

    Centroids are removed from both sets first, so translation is ignored;
    only the rotation is recovered (no scale).
    """
    # a LandmarkSet was checked, and plane-tested, when it was built
    s = src.points if isinstance(src, LandmarkSet) else _as_points(src, "src")
    d = dst.points if isinstance(dst, LandmarkSet) else _as_points(dst, "dst")
    if s.shape != d.shape:
        raise ValueError("src and dst must have the same number of points")
    sc = s - s.mean(axis=0)
    dc = d - d.mean(axis=0)
    if not isinstance(src, LandmarkSet) and not _spans_plane(sc):
        raise DegenerateGeometryError(
            "source points are collinear; rotation is not unique"
        )

    # the cross-covariance m[a][b] = sum_i sc[i, a] dc[i, b], as nine floats
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = (sc.T @ dc).ravel().tolist()
    n4 = np.array([[m00 + m11 + m22, m12 - m21, m20 - m02, m01 - m10],
                   [m12 - m21, m00 - m11 - m22, m01 + m10, m02 + m20],
                   [m20 - m02, m01 + m10, m11 - m00 - m22, m12 + m21],
                   [m01 - m10, m02 + m20, m12 + m21, m22 - m00 - m11]])
    if not n4.any():
        raise DegenerateGeometryError("cross-covariance is zero")
    _, vectors = symmetric_eigh(n4)
    w, x, y, z = vectors[:, 0].tolist()
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return _quat_to_matrix(w / n, x / n, y / n, z / n)


def panoptic_rotation(extrinsic, r_horn) -> np.ndarray:
    """Head rotation in image space: E_ref @ C_extr @ R_Horn; an extrinsic
    array is admitted as CameraExtrinsic admits it."""
    if isinstance(extrinsic, CameraExtrinsic):
        c = extrinsic.rotation_part
    else:
        c = _extrinsic(extrinsic, "extrinsic")
    h = require_rotation(r_horn, tol=ORTHO_TOL, what="r_horn")
    # C_extr @ R_Horn entry by entry (_mul); E_ref = diag(1, -1, -1) then
    # negates rows 2 and 3, which is exact
    m = _mul(c.reshape(9).tolist(), h.reshape(9).tolist())
    return _matrix(m[:3] + [-v for v in m[3:]])
