"""Dataset-coverage machinery: spiral pose generation, roll densification,
uniform random rotations, PCA of flattened matrices, and Euler-range stats.

A spiral sweep gives dense pitch-yaw coverage with exactly zero roll;
random rotate/flip augmentation then fills in the missing roll range.
PCA of the row-major flattened 3x3 matrices is the standard way to look
at how much of SO(3) a pose set actually covers.
"""

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .core import (_HALF_PI, _compose_rows, _quat_to_matrix, _require_int, _require_rotations,
                   wrap_angle)
from .eigen import symmetric_eigh
from .euler import _euler_rows
from .labels import CHUNK_RECORDS

# Keep spiral yaws clear of the Gimbal band so canonical rolls are exactly 0.
_YAW_CAP = _HALF_PI - 1e-3


@dataclass(frozen=True)
class SpiralSpec:
    """Spiral sweep parameters: pitch climbs linearly over `count` poses
    while yaw oscillates through `turns` full revolutions."""

    count: int = 1440
    turns: float = 8.0
    pitch_min: float = math.radians(-75.0)
    pitch_max: float = math.radians(75.0)

    def __post_init__(self):
        object.__setattr__(self, "count", _require_int(self.count, "count"))
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not (math.isfinite(self.turns) and self.turns > 0):
            raise ValueError("turns must be finite and positive")
        if not -_HALF_PI < self.pitch_min <= self.pitch_max < _HALF_PI:
            raise ValueError("pitch range must satisfy -pi/2 < min <= max < pi/2")


def _triangle_yaw(azimuth: float) -> float:
    """Fold an azimuth into a triangle wave over [-pi/2, pi/2]."""
    w = wrap_angle(azimuth)
    if w > _HALF_PI:
        w = math.pi - w
    elif w < -_HALF_PI:
        w = -math.pi - w
    return max(-_YAW_CAP, min(_YAW_CAP, w))


def spiral_rotations(spec: SpiralSpec) -> List[np.ndarray]:
    """Zero-roll rotations along a pitch-yaw spiral.

    Every output composes (pitch, yaw, 0), so canonical extraction
    returns a roll of exactly zero.
    """
    return list(_spiral_rows(spec, 0, spec.count))


def _spiral_rows(spec: SpiralSpec, start: int, stop: int) -> np.ndarray:
    """Poses start..stop-1 of the spiral as an (n, 3, 3) stack.

    Angles are computed pose by pose in Python floats and composed in one
    _compose_rows, whose rows equal compose_pyr's byte for byte.
    """
    angles = []
    for i in range(start, stop):
        t = i / (spec.count - 1) if spec.count > 1 else 0.0
        pitch = spec.pitch_min + t * (spec.pitch_max - spec.pitch_min)
        yaw = _triangle_yaw(t * spec.turns * 2.0 * math.pi)
        angles.append((pitch, yaw, 0.0))
    return _compose_rows(np.array(angles).reshape(-1, 3), "pyr")


def densify_rolls(
    poses: Sequence, budget: float, seed: int, multiplier: int = 2
) -> List[np.ndarray]:
    """Expand a pose list with random rotate/flip augmentations.

    Each input pose yields `multiplier` augmented copies, grouped in input
    order.  Draws come from per-index counter-based streams, so the output
    is independent of processing order and reproducible from the seed.
    The seed and multiplier must be integers (_require_int); then checks
    as random_augment's loop: the first pose, the budget, the rest.
    """
    # imported here only, so that the CLI's spiral, stats and pca, which
    # load this module, leave augment and drawing out
    from .augment import _check_budget, _image_rows, _random_ops

    seed, multiplier = _require_int(seed, "seed"), _require_int(multiplier, "multiplier")
    if multiplier < 1:
        raise ValueError("multiplier must be >= 1")
    out = []
    for start in range(0, len(poses), CHUNK_RECORDS):
        stack = np.array(poses[start:start + CHUNK_RECORDS], dtype=float)
        if start == 0:
            _require_rotations(stack[:1])
            budget = _check_budget(budget)
        rotate, angles = _random_ops(budget, seed, start, len(stack), multiplier)
        rows = np.repeat(_require_rotations(stack), multiplier, axis=0)
        out.extend(_image_rows(rows, rotate, angles))
    return out


def random_rotation(rng: "np.random.Generator") -> np.ndarray:
    """Uniform (Haar) random rotation via a normalized Gaussian quaternion.

    The norm sums left to right, so the draws do not depend on the BLAS kernel.
    """
    while True:
        w, x, y, z = rng.normal(size=4).tolist()
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if n > 1e-12:
            break
    return _quat_to_matrix(w / n, x / n, y / n, z / n)


@dataclass(frozen=True)
class PcaResult:
    """Top-k principal components of a vector set.

    components rows are orthonormal; explained_variance is descending.
    eigenvalues holds the full spectrum (descending) so the total variance
    can be checked against the covariance trace.  Each component's
    largest-magnitude entry is made positive so outputs are stable.
    """

    components: np.ndarray
    explained_variance: np.ndarray
    projected: np.ndarray
    mean: np.ndarray
    eigenvalues: np.ndarray

    def transform(self, vectors) -> np.ndarray:
        v = np.atleast_2d(np.asarray(vectors, dtype=float))
        return (v - self.mean) @ self.components.T


def pca_project(vectors: Iterable, k: int = 3) -> PcaResult:
    """PCA of a list of equal-length vectors via LAPACK eigh (through numpy).

    Mean-centers, forms the sample covariance (ddof=1), eigendecomposes
    it, and projects onto the top-k components.
    """
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2:
        raise ValueError("vectors must form a 2D array")
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least 2 vectors")
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}]")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    values, vecs = symmetric_eigh(cov)
    values = np.maximum(values, 0.0)
    top = vecs[:, :k]
    signs = np.where(top[np.abs(top).argmax(axis=0), np.arange(k)] < 0, -1.0, 1.0)
    comps = (top * signs).T.copy()  # C order: it picks centered @ comps.T's BLAS call
    projected = centered @ comps.T
    return PcaResult(comps, values[:k].copy(), projected, mean, values)


@dataclass(frozen=True)
class EulerRangeStats:
    """Min/max of canonically extracted Euler angles, in degrees."""

    count: int
    pitch_deg: Tuple[float, float]
    yaw_deg: Tuple[float, float]
    roll_deg: Tuple[float, float]


def euler_range_stats(poses: Sequence) -> EulerRangeStats:
    """Per-angle min/max over a pose list via canonical extraction, after
    an SO(3) check of each chunk of poses (_euler_rows checks nothing)."""
    if len(poses) == 0:
        raise ValueError("pose list is empty")
    pitches, yaws, rolls = [], [], []
    for start in range(0, len(poses), CHUNK_RECORDS):
        stack = _require_rotations(np.asarray(poses[start:start + CHUNK_RECORDS], dtype=float))
        angles, _ = _euler_rows(stack, "pyr")
        for column, values in zip((pitches, yaws, rolls), np.degrees(angles).T.tolist()):
            column.extend(values)
    return EulerRangeStats(
        count=len(poses),
        pitch_deg=(min(pitches), max(pitches)),
        yaw_deg=(min(yaws), max(yaws)),
        roll_deg=(min(rolls), max(rolls)),
    )
