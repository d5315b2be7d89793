"""Closed-form Euler extraction: one routine for every convention.

_extract reads one matrix's nine row-major floats by the rule of
rotkit._conventions; extract_pyr, extract_rpy and _euler_rows (row by row,
no check: the reader or coverage.euler_range_stats checks its stack) call
it.  The elemental rotations are left-handed (rot_x_left, rot_y_left,
rot_z_left), so a convention is scipy's right-handed intrinsic sequence
with every angle negated:

    convention  triple e            matrix                  scipy Rotation
    pyr         (pitch, yaw, roll)  Rx(p) @ Ry(y) @ Rz(r)   from_euler("XYZ", -e)
    rpy         (roll, pitch, yaw)  Rz(r) @ Rx(p) @ Ry(y)   from_euler("ZXY", -e)

Away from the lock, extraction equals -as_euler(...) of the same sequence,
with the middle angle in [-pi/2, pi/2].  At the lock (|cos(middle)| <=
GIMBAL_EPS) only pitch -/+ roll (pyr, yaw = +/-pi/2) or yaw -/+ roll (rpy,
pitch = +/-pi/2) is determined, and it is split evenly: (pitch, roll) =
(half, -/+half), (roll, yaw) = (-/+half, half), both in [-pi/2, pi/2].
Pitch-yaw-roll also reports its second representation away from the lock;
the canonical one keeps yaw in [-pi/2, pi/2], the choice 300W-LP labels
follow.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    _CONVENTIONS,
    _HALF_PI,
    EulerPYR,
    EulerRPY,
    compose_pyr,
    compose_rpy,
    require_rotation,
    wrap_angle,
)

# Gimbal threshold on |cos(yaw)| (~0.0057 deg off the pole).  Wide enough
# to catch near-lock labels seen in 300W-LP; either branch reconstructs
# accurately inside the transition band.
GIMBAL_EPS = 1e-4


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


def _entries(r, gimbal_eps) -> Tuple[list, float]:
    # The checks of extract_pyr and extract_rpy; returns r's nine entries and gimbal_eps.
    gimbal_eps = float(gimbal_eps)
    if not 0.0 < gimbal_eps < 1.0:  # at 1 or more every rotation would lock
        raise ValueError(f"gimbal_eps must be in (0, 1), got {gimbal_eps!r}")
    return require_rotation(r).ravel().tolist(), gimbal_eps


def _extract(m: list, convention: str, gimbal_eps: float) -> Tuple[tuple, int]:
    """The (first, middle, last) angles of one rotation, given as its nine
    row-major floats, in a convention of core._CONVENTIONS, and its lock: 0,
    or +1 / -1 when locked with the middle angle at +pi/2 / -pi/2.

    The rule of rotkit._conventions, c = |cos(middle)| the lock test; the
    middle angle is in [-pi/2, pi/2], first and last are wrapped into (-pi,
    pi].  The signs s and lock are exact: +1 leaves an entry's bytes as they
    are.  No checks: the callers make them (_entries, the reader, euler_range_stats).
    """
    _, s, i_mid, (fy, fx), (ly, lx), (num, den), split_up, split_down = _CONVENTIONS[convention]
    c = math.hypot(m[ly], m[lx])
    if c > gimbal_eps:
        first = wrap_angle(math.atan2(s * m[fy], m[fx]))
        return (first, math.atan2(-s * m[i_mid], c), wrap_angle(math.atan2(s * m[ly], m[lx]))), 0

    lock = 1 if s * m[i_mid] <= 0.0 else -1
    half = 0.5 * math.atan2(lock * m[num], m[den])
    a, b = split_up if lock > 0 else split_down
    return (a * half, lock * _HALF_PI, b * half), lock


def extract_pyr(r, gimbal_eps: float = GIMBAL_EPS) -> PyrSolutions:
    """Extract pitch-yaw-roll solutions from a rotation matrix.

    Away from the lock (|cos(yaw)| > gimbal_eps) both solutions are
    returned; the primary has yaw in [-pi/2, pi/2] and the secondary is
    the complementary representation of the same rotation.
    """
    m, gimbal_eps = _entries(r, gimbal_eps)
    (p1, y1, r1), lock = _extract(m, "pyr", gimbal_eps)
    primary = EulerPYR(p1, y1, r1)
    if lock:
        kind = "gimbal_up" if lock > 0 else "gimbal_down"
        return PyrSolutions(kind, primary, None, 2.0 * p1)
    y2 = math.pi - y1 if y1 >= 0.0 else -math.pi - y1
    p2 = p1 - math.pi if p1 >= 0.0 else p1 + math.pi
    r2 = r1 - math.pi if r1 >= 0.0 else r1 + math.pi
    secondary = EulerPYR(wrap_angle(p2), wrap_angle(y2), wrap_angle(r2))
    return PyrSolutions("regular", primary, secondary)


def canonical_pyr(r, gimbal_eps: float = GIMBAL_EPS) -> EulerPYR:
    """The pitch-yaw-roll representative with yaw in [-pi/2, pi/2]."""
    return extract_pyr(r, gimbal_eps).primary


def extract_rpy(r, gimbal_eps: float = GIMBAL_EPS) -> RpySolution:
    """Extract the roll-pitch-yaw solution with pitch in [-pi/2, pi/2].

    At the lock (pitch = +/-pi/2) only yaw -/+ roll is determined; it is
    split evenly between the two, mirroring the pitch-yaw-roll convention.
    """
    m, gimbal_eps = _entries(r, gimbal_eps)
    angles, lock = _extract(m, "rpy", gimbal_eps)
    return RpySolution("gimbal" if lock else "regular", EulerRPY(*angles))


def _euler_rows(a: np.ndarray, convention: str) -> Tuple[np.ndarray, np.ndarray]:
    """canonical_pyr ("pyr") or extract_rpy(...).value ("rpy") on each row
    of an (n, 3, 3) stack.

    Returns the (n, 3) angle rows and the mask of rows the scalar extractor
    reports as Gimbal-locked.  No SO(3) check: the scalar routine _extract
    on each row's nine floats, so every row is the scalar result itself.
    """
    rows = [_extract(m, convention, GIMBAL_EPS) for m in a.reshape(-1, 9).tolist()]
    angles, locks = zip(*rows) if rows else ((), ())
    return np.array(angles, dtype=float).reshape(-1, 3), np.array(locks, dtype=bool)


def pyr_to_rpy(e, gimbal_eps: float = GIMBAL_EPS) -> EulerRPY:
    """Convert a pitch-yaw-roll triple to the equivalent roll-pitch-yaw."""
    return extract_rpy(compose_pyr(e), gimbal_eps).value


def rpy_to_pyr(e, gimbal_eps: float = GIMBAL_EPS) -> EulerPYR:
    """Convert a roll-pitch-yaw triple to the canonical pitch-yaw-roll."""
    return canonical_pyr(compose_rpy(e), gimbal_eps)
