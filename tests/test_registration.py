import math

import numpy as np
import pytest

from helpers import rotation_angle
from rotkit import (
    CameraExtrinsic,
    DegenerateGeometryError,
    LandmarkSet,
    horn_rotation,
    is_rotation,
    panoptic_rotation,
    geodesic_distance,
    random_rotation,
    rot_x_left,
)
from rotkit import registration
from rotkit.augment import pose_stream
from rotkit.core import _geodesic_terms, _half_angle


class TestHornRotation:
    def test_identity_for_equal_sets(self):
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [1.0, 1.0, 1.0]])
        r = horn_rotation(pts, pts)
        assert np.abs(r - np.eye(3)).max() < 1e-12

    def test_recovers_synthetic_rigid_motion(self):
        rng = pose_stream(201)
        worst = 0.0
        for _ in range(200):
            true = random_rotation(rng)
            n = int(rng.integers(4, 11))
            src = rng.normal(size=(n, 3))
            dst = src @ true.T + rng.normal(size=3)
            got = horn_rotation(src, dst)
            assert is_rotation(got, 1e-9)
            worst = max(worst, rotation_angle(got, true))
        assert worst < 1e-9

    def test_noise_perturbation(self):
        rng = pose_stream(203)
        for _ in range(100):
            true = random_rotation(rng)
            src = rng.normal(size=(8, 3))
            dst = src @ true.T + rng.normal(size=3) + 1e-3 * rng.normal(size=(8, 3))
            got = horn_rotation(src, dst)
            assert rotation_angle(got, true) < 1e-2

    def test_three_point_minimum(self):
        rng = pose_stream(207)
        true = random_rotation(rng)
        src = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.3, 1.0]])
        dst = src @ true.T
        assert rotation_angle(horn_rotation(src, dst), true) < 1e-9

    def test_collinear_source_rejected(self):
        src = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]])
        dst = np.roll(src, 1, axis=0)
        with pytest.raises(DegenerateGeometryError):
            horn_rotation(src, dst)

    def test_identical_points_rejected(self):
        src = np.ones((4, 3))
        with pytest.raises(DegenerateGeometryError):
            horn_rotation(src, src)

    def test_shape_validation(self):
        good = np.eye(3)
        with pytest.raises(ValueError):
            horn_rotation(good[:2], good[:2])
        with pytest.raises(ValueError):
            horn_rotation(good, np.eye(4)[:, :3])
        with pytest.raises(ValueError):
            horn_rotation(np.ones((3, 2)), np.ones((3, 2)))

    def test_accepts_landmark_sets(self):
        rng = pose_stream(209)
        true = random_rotation(rng)
        src = LandmarkSet(rng.normal(size=(5, 3)))
        dst = LandmarkSet(src.points @ true.T)
        assert rotation_angle(horn_rotation(src, dst), true) < 1e-9


def _kabsch(src, dst):
    """SVD/Kabsch least-squares rotation, the reference for horn_rotation."""
    h = (src - src.mean(axis=0)).T @ (dst - dst.mean(axis=0))
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    return vt.T @ np.diag([1.0, 1.0, d]) @ u.T


class TestHornAccuracy:
    def test_matches_kabsch_on_noisy_landmarks(self):
        # 68 face-like landmarks in millimetres, 1 mm noise, planted poses;
        # every fourth source set is exactly coplanar
        rng = pose_stream(215)
        worst = 0.0
        for trial in range(520):
            true = random_rotation(rng)
            src = rng.normal(size=(68, 3)) * [70.0, 90.0, 50.0]
            if trial % 4 == 0:
                src[:, 2] = 0.0
                src = src @ random_rotation(rng).T
            dst = src @ true.T + rng.uniform(-500.0, 500.0, size=3)
            dst += rng.normal(scale=1.0, size=(68, 3))
            got = horn_rotation(src, dst)
            worst = max(worst, float(np.abs(got - _kabsch(src, dst)).max()))
            cam = random_rotation(rng)
            assert is_rotation(panoptic_rotation(cam, got), 1e-12)
        assert worst < 1e-13


def _horn_reference(src, dst):
    """Horn's rotation as first written: N indexed from the numpy
    cross-covariance, np.linalg.eigh of its symmetric part, the unit
    eigenvector of the largest eigenvalue as the quaternion."""
    sc, dc = src - src.mean(axis=0), dst - dst.mean(axis=0)
    m = sc.T @ dc
    n4 = np.array(
        [
            [m[0, 0] + m[1, 1] + m[2, 2], m[1, 2] - m[2, 1], m[2, 0] - m[0, 2], m[0, 1] - m[1, 0]],
            [m[1, 2] - m[2, 1], m[0, 0] - m[1, 1] - m[2, 2], m[0, 1] + m[1, 0], m[0, 2] + m[2, 0]],
            [m[2, 0] - m[0, 2], m[0, 1] + m[1, 0], m[1, 1] - m[0, 0] - m[2, 2], m[1, 2] + m[2, 1]],
            [m[0, 1] - m[1, 0], m[0, 2] + m[2, 0], m[1, 2] + m[2, 1], m[2, 2] - m[0, 0] - m[1, 1]],
        ]
    )
    _, vectors = np.linalg.eigh(0.5 * (n4 + n4.T))
    w, x, y, z = (float(v) for v in vectors[:, -1])
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array(
        [
            [w * w + x * x - y * y - z * z, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), w * w - x * x + y * y - z * z, 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    )


def _panoptic_reference(c, h):
    # E_ref @ C @ H: each entry of C @ H summed left to right, rows 2 and 3
    # negated
    p = [[(c[i, 0] * h[0, j] + c[i, 1] * h[1, j]) + c[i, 2] * h[2, j] for j in range(3)]
         for i in range(3)]
    return np.array([p[0], [-v for v in p[1]], [-v for v in p[2]]])


def _noisy_frames(count):
    # 68 face-like landmarks in millimetres under planted poses with 1 mm
    # noise; every fifth source lies within 1e-3 mm of a line
    rng = pose_stream(217)
    for trial in range(count):
        src = rng.normal(size=(68, 3)) * [70.0, 90.0, 50.0]
        if trial % 5 == 0:
            src = np.outer(src[:, 0], rng.normal(size=3)) + 1e-3 * rng.normal(size=(68, 3))
        true = random_rotation(rng)
        dst = src @ true.T + rng.uniform(-500.0, 500.0, size=3)
        dst += rng.normal(scale=1.0, size=(68, 3))
        yield src, dst, random_rotation(rng), true


class TestHornBitForBit:
    """horn_rotation, panoptic_rotation and geodesic_distance hold to their
    reference formulas byte for byte, and each degenerate input keeps its
    exception type and message."""

    def test_frames_match_the_reference(self):
        for src, dst, cam, true in _noisy_frames(500):
            horn = horn_rotation(src, dst)
            assert horn.tobytes() == _horn_reference(src, dst).tobytes()
            pan = panoptic_rotation(cam, horn)
            assert pan.tobytes() == _panoptic_reference(cam, horn).tobytes()
            planted = _panoptic_reference(cam, true)
            want = _half_angle(*_geodesic_terms(pan.ravel().tolist(), planted.ravel().tolist()))
            assert geodesic_distance(pan, planted).hex() == want.hex()

    @pytest.mark.parametrize(
        "src, dst, error, message",
        [
            (np.outer(np.arange(5.0), [1.0, 2.0, 3.0]), np.eye(5, 3), DegenerateGeometryError,
             "source points are collinear; rotation is not unique"),
            (np.ones((4, 3)), np.ones((4, 3)), DegenerateGeometryError,
             "source points are collinear; rotation is not unique"),
            (np.eye(4, 3), np.ones((4, 3)), DegenerateGeometryError, "cross-covariance is zero"),
            (1e160 * np.eye(4, 3), 1e160 * np.eye(4, 3), ValueError, "matrix must be finite"),
        ],
        ids=["collinear", "identical-points", "zero-cross-covariance", "scaled-1e160"],
    )
    def test_degenerate_inputs(self, src, dst, error, message):
        # the 1e160 scatter overflows before the finiteness check sees it
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
            horn_rotation(src, dst)
        assert type(info.value) is error
        assert str(info.value) == message


class TestLandmarkSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            LandmarkSet(np.ones((2, 3)))
        with pytest.raises(DegenerateGeometryError):
            LandmarkSet(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        with pytest.raises(ValueError):
            LandmarkSet(np.full((3, 3), np.nan))

    def test_horn_does_not_test_a_landmark_set_again(self, monkeypatch):
        # a LandmarkSet is plane-tested when it is built; horn_rotation then
        # solves only its 4x4 quaternion matrix, to the same bytes as on arrays
        rng = pose_stream(215)
        src = rng.normal(size=(6, 3))
        dst = src @ random_rotation(rng).T
        sets = LandmarkSet(src), LandmarkSet(dst)
        sizes = []

        def counting(a):
            sizes.append(a.shape)
            return eigh(a)

        eigh = registration.symmetric_eigh
        monkeypatch.setattr(registration, "symmetric_eigh", counting)
        got = horn_rotation(*sets)
        assert sizes == [(4, 4)]
        assert got.tobytes() == horn_rotation(src, dst).tobytes()
        assert sizes == [(4, 4), (3, 3), (4, 4)]

    def test_keeps_a_read_only_copy_of_what_it_checked(self):
        # the caller's points, made collinear after the check, reach
        # neither the set nor horn_rotation, which does not test it again
        rng = pose_stream(217)
        pts = rng.normal(size=(6, 3))
        checked, dst = pts.copy(), pts @ random_rotation(rng).T
        ls = LandmarkSet(pts)
        pts[:, 1:] = 0.0
        with pytest.raises(DegenerateGeometryError):
            horn_rotation(pts, dst)
        assert ls.points.tobytes() == checked.tobytes()
        assert not ls.points.flags.writeable
        assert horn_rotation(ls, dst).tobytes() == horn_rotation(checked, dst).tobytes()


class TestPanopticRotation:
    def test_identity_inputs(self):
        out = panoptic_rotation(np.eye(3), np.eye(3))
        np.testing.assert_array_equal(out, np.diag([1.0, -1.0, -1.0]))

    def test_elemental_horn_factor(self):
        p = 0.62
        out = panoptic_rotation(np.eye(3), rot_x_left(p))
        expected = np.diag([1.0, -1.0, -1.0]) @ rot_x_left(p)
        np.testing.assert_array_equal(out, expected)

    def test_output_determinant_positive(self):
        rng = pose_stream(211)
        for _ in range(50):
            out = panoptic_rotation(random_rotation(rng), random_rotation(rng))
            assert is_rotation(out, 1e-9)

    def test_camera_extrinsic_wrapper(self):
        rng = pose_stream(213)
        c = CameraExtrinsic(random_rotation(rng))
        h = random_rotation(rng)
        np.testing.assert_array_equal(
            panoptic_rotation(c, h), panoptic_rotation(c.rotation_part, h)
        )

    def test_camera_extrinsic_keeps_a_read_only_copy(self):
        # an entry set after the check would make the output no rotation
        cam = np.eye(3)
        ce = CameraExtrinsic(cam)
        cam[0, 0] = 5.0
        assert ce.rotation_part.tolist() == np.eye(3).tolist()
        assert not ce.rotation_part.flags.writeable
        assert panoptic_rotation(ce, np.eye(3)).tolist() == np.diag([1.0, -1.0, -1.0]).tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            panoptic_rotation(np.eye(3) * 2, np.eye(3))
        with pytest.raises(ValueError):
            CameraExtrinsic(np.eye(3) * 2)
