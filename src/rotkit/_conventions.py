"""The Euler conventions rotkit knows, each derived from its axis string;
the CLI builds `convert --target` from their names without loading numpy.

A triple (first, middle, last) of axes "abc" composes as R_a @ R_b @ R_c.
One rule reads it off the row-major matrix m (after Shoemake, "Euler Angle
Conversion", Graphics Gems IV, 1994): with i, j, k the indices of a, b, c,
s = +1 for xyz, yzx, zxy (else -1) and c = hypot(m[3i+j], m[3i+i]),
    middle = atan2(-s m[3i+k], c), first = atan2(s m[3j+k], m[3k+k]),
    last = atan2(s m[3i+j], m[3i+i]).
At the lock (c = |cos(middle)| <= gimbal_eps) middle = lock pi/2, lock = +1
if s m[3i+k] <= 0 else -1, and only half = atan2(lock m[num], m[3j+j]) / 2
is known: (first, last) = split * half, for m[num] = m[j][i] ("ji", split
(1, -s) at lock +1, (1, s) at -1) or m[k][j] ("kj", (-s, 1) and (s, 1)).
"""

from typing import NamedTuple, Tuple


class _Convention(NamedTuple):
    """One row of the rule, read by core's _compose(_rows) and euler's _extract."""

    axes: str
    sign: float  # s
    mid: int  # 3i+k
    first: Tuple[int, int]  # (3j+k, 3k+k)
    last: Tuple[int, int]  # (3i+j, 3i+i)
    lock: Tuple[int, int]  # (num, 3j+j)
    split_up: Tuple[float, float]  # middle = +pi/2
    split_down: Tuple[float, float]  # middle = -pi/2


def _convention(axes: str, lock_entry: str) -> _Convention:
    """The row of the rule for axes, a permutation of "xyz", with the lock
    numerator m[j][i] (lock_entry "ji") or m[k][j] ("kj")."""
    i, j, k = map("xyz".index, axes)
    s = 1.0 if axes in "xyzxy" else -1.0  # the cyclic orders xyz, yzx, zxy
    num = 3 * j + i if lock_entry == "ji" else 3 * k + j
    splits = [(1.0, -s), (1.0, s)] if lock_entry == "ji" else [(-s, 1.0), (s, 1.0)]
    return _Convention(axes, s, 3 * i + k, (3 * j + k, 3 * k + k), (3 * i + j, 3 * i + i),
                       (num, 3 * j + j), *splits)


# The Euler conventions, in the order label files list their views.
_CONVENTIONS = {
    # pitch-yaw-roll, 300W-LP: Rx(p) @ Ry(y) @ Rz(r); locked yaw fixes p -/+ r
    "pyr": _convention("xyz", "ji"),
    # roll-pitch-yaw, Blender/Panohead: Rz(r) @ Rx(p) @ Ry(y); locked pitch fixes y -/+ r
    "rpy": _convention("zxy", "kj"),
}
