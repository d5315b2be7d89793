"""Batched numpy reference math for generating inputs and checking outputs.

Everything here is written from the closed forms of the rotkit convention
(left-handed elemental rotations, pitch-yaw-roll = Rx @ Ry @ Rz,
roll-pitch-yaw = Rz @ Rx @ Ry), never by calling rotkit, so a check built
on it is independent of the code under test.  Arrays of rotations have
shape (n, 3, 3); angles are radians.
"""

import numpy as np

GIMBAL_EPS = 1e-4  # rotkit.euler.GIMBAL_EPS: lock threshold on |cos(yaw)|
HALF_PI = np.pi / 2


def quat_to_matrix(q):
    """Rotation matrices of unit quaternions q = (w, x, y, z), shape (n, 4)."""
    w, x, y, z = q.T
    return np.stack(
        [
            np.stack([w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z], -1),
        ],
        -2,
    )


def haar(rng, n):
    """n Haar-uniform rotations from normalised Gaussian quaternions."""
    q = rng.normal(size=(n, 4))
    return quat_to_matrix(q / np.linalg.norm(q, axis=1, keepdims=True))


def axis_angle(axis, angle):
    """Rodrigues rotations about unit axes (n, 3) by angles (n,)."""
    k = np.zeros((len(angle), 3, 3))
    x, y, z = axis.T
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -z, y, -x
    k[:, 1, 0], k[:, 2, 0], k[:, 2, 1] = z, -y, x
    s, c = np.sin(angle)[:, None, None], np.cos(angle)[:, None, None]
    return np.eye(3) + s * k + (1 - c) * (k @ k)


def compose_pyr(p, y, r):
    """Expanded intrinsic XYZ (pitch-yaw-roll) matrices."""
    cp, sp, cy, sy, cr, sr = np.cos(p), np.sin(p), np.cos(y), np.sin(y), np.cos(r), np.sin(r)
    return np.stack(
        [
            np.stack([cy * cr, cy * sr, -sy], -1),
            np.stack([-cp * sr + sp * sy * cr, cp * cr + sp * sy * sr, sp * cy], -1),
            np.stack([sp * sr + cp * sy * cr, -sp * cr + cp * sy * sr, cp * cy], -1),
        ],
        -2,
    )


def compose_rpy(r, p, y):
    """Expanded intrinsic ZXY (roll-pitch-yaw) matrices."""
    cp, sp, cy, sy, cr, sr = np.cos(p), np.sin(p), np.cos(y), np.sin(y), np.cos(r), np.sin(r)
    return np.stack(
        [
            np.stack([sp * sr * sy + cr * cy, sr * cp, sp * sr * cy - sy * cr], -1),
            np.stack([sp * sy * cr - sr * cy, cp * cr, sp * cr * cy + sr * sy], -1),
            np.stack([sy * cp, -sp, cp * cy], -1),
        ],
        -2,
    )


def _wrap(a):
    return np.where(a == -np.pi, np.pi, a)


def extract_pyr(m):
    """Canonical pitch-yaw-roll (n, 3) and a locked mask, as rotkit defines them.

    Away from the lock the representative with yaw in [-pi/2, pi/2];
    at the lock (|cos(yaw)| <= GIMBAL_EPS) yaw snaps to +/-pi/2 and the
    determined combination pitch -/+ roll is split evenly.
    """
    yaw = np.arcsin(np.clip(-m[:, 0, 2], -1.0, 1.0))
    locked = ~(np.cos(yaw) > GIMBAL_EPS)
    up = m[:, 0, 2] <= 0.0
    half = 0.5 * np.where(up, np.arctan2(m[:, 1, 0], m[:, 1, 1]), np.arctan2(-m[:, 1, 0], m[:, 1, 1]))
    pitch = np.where(locked, half, _wrap(np.arctan2(m[:, 1, 2], m[:, 2, 2])))
    roll = np.where(locked, np.where(up, -half, half), _wrap(np.arctan2(m[:, 0, 1], m[:, 0, 0])))
    yaw = np.where(locked, np.where(up, HALF_PI, -HALF_PI), yaw)
    return np.stack([pitch, yaw, roll], -1), locked


def extract_rpy(m):
    """Roll-pitch-yaw (n, 3) with pitch in [-pi/2, pi/2] and a locked mask."""
    pitch = np.arcsin(np.clip(-m[:, 2, 1], -1.0, 1.0))
    locked = ~(np.cos(pitch) > GIMBAL_EPS)
    up = m[:, 2, 1] <= 0.0
    half = 0.5 * np.where(up, np.arctan2(m[:, 1, 0], m[:, 0, 0]), np.arctan2(-m[:, 1, 0], m[:, 0, 0]))
    roll = np.where(locked, np.where(up, -half, half), _wrap(np.arctan2(m[:, 0, 1], m[:, 1, 1])))
    yaw = np.where(locked, half, _wrap(np.arctan2(m[:, 2, 0], m[:, 2, 2])))
    pitch = np.where(locked, np.where(up, HALF_PI, -HALF_PI), pitch)
    return np.stack([roll, pitch, yaw], -1), locked


def geodesic(a, b):
    """Angle between rotations, accurate at 0 and near pi.

    theta = 2 atan2(sin(theta/2), cos(theta/2)) with
    sin^2 = |A - B|_F^2 / 8 and cos^2 = (1 + tr(A B^T)) / 4, evaluated in
    extended precision so neither end loses digits to cancellation.
    """
    a = np.asarray(a, dtype=np.longdouble)
    b = np.asarray(b, dtype=np.longdouble)
    s2 = ((a - b) ** 2).sum(axis=(-2, -1)) / 8
    c2 = (1 + (a * b).sum(axis=(-2, -1))) / 4
    return (2 * np.arctan2(np.sqrt(s2), np.sqrt(np.maximum(c2, 0)))).astype(float)


def so3_residual(m):
    """Per-matrix max(|M M^T - I|, |det M - 1|)."""
    orth = np.abs(m @ np.swapaxes(m, -1, -2) - np.eye(3)).max(axis=(-2, -1))
    return np.maximum(orth, np.abs(np.linalg.det(m) - 1.0))


def kabsch(src, dst):
    """Least-squares rotations R minimising sum |dst_i - R src_i|^2 by SVD.

    src is one (k, 3) point set, dst is (n, k, 3).
    """
    sc = src - src.mean(axis=0)
    dc = dst - dst.mean(axis=1, keepdims=True)
    h = np.einsum("ka,nkb->nab", sc, dc)
    u, _, vt = np.linalg.svd(h)
    v = np.swapaxes(vt, -1, -2)
    d = np.sign(np.linalg.det(v @ np.swapaxes(u, -1, -2)))
    fix = np.ones((len(d), 3))
    fix[:, 2] = d
    return (v * fix[:, None, :]) @ np.swapaxes(u, -1, -2)


def rotate_label(m, phi):
    """Labels after rotating images by phi: Rz_image(phi) @ R."""
    c, s = np.cos(phi), np.sin(phi)
    g = np.zeros((len(phi), 3, 3))
    g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1], g[:, 2, 2] = c, -s, s, c, 1.0
    return g @ m


def flip_label(m, theta):
    """Labels after flipping images across L_theta: F(theta) @ R @ diag(-1, 1, 1)."""
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    g = np.zeros((len(theta), 3, 3))
    g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1], g[:, 2, 2] = c, s, s, -c, 1.0
    out = g @ m
    out[:, :, 0] *= -1.0
    return out


def spiral(count, turns=8.0, pitch_min=np.radians(-75.0), pitch_max=np.radians(75.0)):
    """The zero-roll pitch-yaw spiral of rotkit.coverage.spiral_rotations."""
    t = np.arange(count) / (count - 1) if count > 1 else np.zeros(1)
    pitch = pitch_min + t * (pitch_max - pitch_min)
    az = t * turns * 2.0 * np.pi
    w = np.where((az > -np.pi) & (az <= np.pi), az, np.pi - np.mod(np.pi - az, 2 * np.pi))
    w = np.where(w > HALF_PI, np.pi - w, np.where(w < -HALF_PI, -np.pi - w, w))
    cap = HALF_PI - 1e-3
    yaw = np.clip(w, -cap, cap)
    return compose_pyr(pitch, yaw, np.zeros(count))
