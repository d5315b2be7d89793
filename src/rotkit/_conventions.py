"""The Euler conventions rotkit knows, as plain data.

Their names choose `convert --target`, so the CLI builds its parser from
this table without loading numpy; core's algebra and euler's extraction
read the same rows.
"""

from typing import NamedTuple, Tuple


class _Convention(NamedTuple):
    """One Euler convention, read by core's _compose and _compose_rows and
    euler's _extract.

    A triple (first, middle, last) composes as R_a @ R_b @ R_c for axes
    "abc".  Entries index the row-major matrix m: first and last are atan2
    of their (numerator, denominator) entries, and middle = atan2(-m[mid],
    c) with c = hypot(m[last[0]], m[last[1]]) = |cos(middle)|; at the
    lock, half = atan2(+/-m[lock[0]], m[lock[1]]) / 2 with + at middle =
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
