"""Closed-form Euler extraction for both axis-sequence conventions.

A rotation composed in the intrinsic XYZ (pitch-yaw-roll) order has two
Euler representations away from Gimbal lock; at yaw = +/-pi/2 only the
combination pitch -/+ roll is determined.  The canonical representative
keeps yaw in [-pi/2, pi/2] (the choice 300W-LP labels follow) and, in the
locked case, splits the coupled angle evenly so pitch and roll both land
in [-pi/2, pi/2].  The intrinsic ZXY (roll-pitch-yaw) sequence used by
Blender/Panohead-style generators is handled the same way, with the lock
at pitch = +/-pi/2.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    EulerPYR,
    EulerRPY,
    _require_rotations,
    compose_pyr,
    compose_rpy,
    require_rotation,
    wrap_angle,
)

# Gimbal threshold on |cos(yaw)| (~0.0057 deg off the pole).  Wide enough
# to catch near-lock labels seen in 300W-LP; either branch reconstructs
# accurately inside the transition band.
GIMBAL_EPS = 1e-4

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class PyrSolutions:
    """Pitch-yaw-roll solutions extracted from one rotation.

    kind is "regular" (two solutions), "gimbal_up" (yaw = +pi/2) or
    "gimbal_down" (yaw = -pi/2).  In the gimbal kinds only the combined
    angle pitch - roll (up) or pitch + roll (down) is determined; it is
    reported as gimbal_sum and split evenly between pitch and roll.
    """

    kind: str
    primary: EulerPYR
    secondary: Optional[EulerPYR] = None
    gimbal_sum: Optional[float] = None


@dataclass(frozen=True)
class RpySolution:
    """Roll-pitch-yaw solution; kind is "regular" or "gimbal"."""

    kind: str
    value: EulerRPY


def _check_eps(gimbal_eps: float) -> float:
    gimbal_eps = float(gimbal_eps)
    if not gimbal_eps > 0.0:
        raise ValueError("gimbal_eps must be positive")
    return gimbal_eps


def extract_pyr(r, gimbal_eps: float = GIMBAL_EPS) -> PyrSolutions:
    """Extract pitch-yaw-roll solutions from a rotation matrix.

    Away from the lock (|cos(yaw)| > gimbal_eps) both solutions are
    returned; the primary has yaw in [-pi/2, pi/2] and the secondary is
    the complementary representation of the same rotation.  Dividing the
    arctangent arguments by cos(yaw) keeps the quadrant right when
    cos(yaw) < 0 would otherwise flip both signs.
    """
    gimbal_eps = _check_eps(gimbal_eps)
    a = require_rotation(r)
    m = a.ravel().tolist()

    y1 = math.asin(min(1.0, max(-1.0, -m[2])))
    cy = math.cos(y1)
    if cy > gimbal_eps:
        p1 = math.atan2(m[5] / cy, m[8] / cy)
        r1 = math.atan2(m[1] / cy, m[0] / cy)
        y2 = math.pi - y1 if y1 >= 0.0 else -math.pi - y1
        p2 = p1 - math.pi if p1 >= 0.0 else p1 + math.pi
        r2 = r1 - math.pi if r1 >= 0.0 else r1 + math.pi
        primary = EulerPYR(wrap_angle(p1), wrap_angle(y1), wrap_angle(r1))
        secondary = EulerPYR(wrap_angle(p2), wrap_angle(y2), wrap_angle(r2))
        return PyrSolutions("regular", primary, secondary)

    if m[2] <= 0.0:
        # yaw = +pi/2: rows give sin/cos of (pitch - roll)
        half = 0.5 * math.atan2(m[3], m[4])
        return PyrSolutions(
            "gimbal_up", EulerPYR(half, _HALF_PI, -half), None, 2.0 * half
        )
    # yaw = -pi/2: rows give sin/cos of (pitch + roll)
    half = 0.5 * math.atan2(-m[3], m[4])
    return PyrSolutions(
        "gimbal_down", EulerPYR(half, -_HALF_PI, half), None, 2.0 * half
    )


def canonical_pyr(r, gimbal_eps: float = GIMBAL_EPS) -> EulerPYR:
    """The pitch-yaw-roll representative with yaw in [-pi/2, pi/2]."""
    return extract_pyr(r, gimbal_eps).primary


def extract_rpy(r, gimbal_eps: float = GIMBAL_EPS) -> RpySolution:
    """Extract the roll-pitch-yaw solution with pitch in [-pi/2, pi/2].

    At the lock (pitch = +/-pi/2) only yaw -/+ roll is determined; it is
    split evenly between the two, mirroring the pitch-yaw-roll convention.
    """
    gimbal_eps = _check_eps(gimbal_eps)
    a = require_rotation(r)
    m = a.ravel().tolist()

    p = math.asin(min(1.0, max(-1.0, -m[7])))
    cp = math.cos(p)
    if cp > gimbal_eps:
        y = math.atan2(m[6] / cp, m[8] / cp)
        rr = math.atan2(m[1] / cp, m[4] / cp)
        return RpySolution(
            "regular", EulerRPY(wrap_angle(rr), wrap_angle(p), wrap_angle(y))
        )

    if m[7] <= 0.0:
        # pitch = +pi/2: only yaw - roll is determined
        half = 0.5 * math.atan2(m[3], m[0])
        return RpySolution("gimbal", EulerRPY(-half, _HALF_PI, half))
    # pitch = -pi/2: only yaw + roll is determined
    half = 0.5 * math.atan2(-m[3], m[0])
    return RpySolution("gimbal", EulerRPY(half, -_HALF_PI, half))


# Per convention: the scalar extractor, the entry whose asin is the middle
# angle, and the (numerator, denominator) entries of the atan2 of the first
# and of the last angle.  Both triples are ordered (first, middle, last).
_ROW_FORMS = {
    "pyr": (extract_pyr, 2, (5, 8), (1, 0)),
    "rpy": (extract_rpy, 7, (1, 4), (6, 8)),
}


def _angles(sol) -> tuple:
    return sol.primary if isinstance(sol, PyrSolutions) else sol.value


def _euler_rows(a: np.ndarray, convention: str) -> Tuple[np.ndarray, np.ndarray]:
    """canonical_pyr ("pyr") or extract_rpy(...).value ("rpy") on each row
    of an (n, 3, 3) stack.

    Returns the (n, 3) angle rows and the mask of rows the scalar extractor
    reports as Gimbal-locked.  One SO(3) check for the stack
    (_require_rotations); regular rows repeat the scalar branch's
    operations, with asin, cos and atan2 from `math` on Python floats
    (numpy's can differ in the last bit) and only the divisions in numpy;
    locked rows go to the scalar extractor.  So every row equals the scalar
    result exactly.
    """
    extract, lock, first, second = _ROW_FORMS[convention]
    a = _require_rotations(a)
    flat = a.reshape(-1, 9)
    mid = list(map(math.asin, np.clip(-flat[:, lock], -1.0, 1.0).tolist()))
    c = np.array(list(map(math.cos, mid)))

    def atan2(i, j):
        # locked rows may divide by ~0 here; they are replaced below
        with np.errstate(divide="ignore", invalid="ignore"):
            y, x = (flat[:, i] / c).tolist(), (flat[:, j] / c).tolist()
        return list(map(wrap_angle, map(math.atan2, y, x)))

    # wrap_angle leaves asin's range, the middle angle, unchanged
    out = np.column_stack([atan2(*first), mid, atan2(*second)])
    locked = ~(c > GIMBAL_EPS)
    for k in np.flatnonzero(locked).tolist():
        out[k] = _angles(extract(a[k]))
    return out, locked


def pyr_to_rpy(e, gimbal_eps: float = GIMBAL_EPS) -> EulerRPY:
    """Convert a pitch-yaw-roll triple to the equivalent roll-pitch-yaw."""
    return extract_rpy(compose_pyr(e), gimbal_eps).value


def rpy_to_pyr(e, gimbal_eps: float = GIMBAL_EPS) -> EulerPYR:
    """Convert a roll-pitch-yaw triple to the canonical pitch-yaw-roll."""
    return canonical_pyr(compose_rpy(e), gimbal_eps)
