import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import naive_matmul, pyr_closed_form, rotation_angle, rpy_closed_form
from rotkit import (
    EulerPYR,
    EulerRPY,
    compose_pyr,
    compose_rpy,
    geodesic_distance,
    is_rotation,
    random_rotation,
    rot_x_left,
    rot_y_left,
    rot_z_left,
    wrap_angle,
)
from rotkit.core import (
    _compose_rows,
    _geodesic_rows,
    _is_rotation_batch,
    _mul,
    _so3_gaps,
)
from rotkit.euler import GIMBAL_EPS, _euler_rows


class TestElementalRotations:
    def test_zero_angles_give_identity(self):
        for f in (rot_x_left, rot_y_left, rot_z_left):
            np.testing.assert_array_equal(f(0.0), np.eye(3))

    def test_x_at_pi(self):
        np.testing.assert_allclose(rot_x_left(math.pi), np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_y_at_half_pi(self):
        expected = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(rot_y_left(math.pi / 2), expected, atol=1e-15)

    def test_z_at_pi(self):
        np.testing.assert_allclose(rot_z_left(math.pi), np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_x_entries_match_scalar_trig(self):
        c, s = math.cos(0.3), math.sin(0.3)
        expected = np.array([[1, 0, 0], [0, c, s], [0, -s, c]], dtype=float)
        assert np.abs(rot_x_left(0.3) - expected).max() < 1e-15

    def test_y_entries_match_scalar_trig(self):
        c, s = math.cos(-0.7), math.sin(-0.7)
        expected = np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]], dtype=float)
        assert np.abs(rot_y_left(-0.7) - expected).max() < 1e-15

    def test_z_entries_match_scalar_trig(self):
        c, s = math.cos(0.25), math.sin(0.25)
        expected = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]], dtype=float)
        assert np.abs(rot_z_left(0.25) - expected).max() < 1e-15

    @pytest.mark.parametrize("f", [rot_x_left, rot_y_left, rot_z_left])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, f, bad):
        with pytest.raises(ValueError):
            f(bad)


class TestCompose:
    def test_pyr_zero_is_identity(self):
        np.testing.assert_array_equal(compose_pyr(EulerPYR(0.0, 0.0, 0.0)), np.eye(3))

    def test_pyr_matches_naive_product(self):
        expected = naive_matmul(naive_matmul(rot_x_left(0.1), rot_y_left(0.2)), rot_z_left(0.3))
        assert np.abs(compose_pyr((0.1, 0.2, 0.3)) - expected).max() < 1e-15

    def test_pyr_matches_closed_form_at_sample_pose(self):
        p, y, r = (math.radians(v) for v in (6.208, 5.876, -1.694))
        assert np.abs(compose_pyr((p, y, r)) - pyr_closed_form(p, y, r)).max() < 1e-15

    def test_rpy_zero_is_identity(self):
        np.testing.assert_array_equal(compose_rpy(EulerRPY(0.0, 0.0, 0.0)), np.eye(3))

    def test_rpy_zero_roll_equals_pyr_zero_roll(self):
        # With no roll both sequences reduce to Rx(p) @ Ry(y).
        p, y = 0.37, -0.82
        np.testing.assert_array_equal(
            compose_rpy(EulerRPY(0.0, p, y)), compose_pyr(EulerPYR(p, y, 0.0))
        )

    def test_rpy_matches_closed_form(self):
        assert np.abs(compose_rpy((0.2, 0.4, -0.6)) - rpy_closed_form(0.2, 0.4, -0.6)).max() < 1e-15

    def test_compose_is_closed_in_so3(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            e = rng.uniform(-math.pi, math.pi, size=3)
            assert is_rotation(compose_pyr(e), 1e-12)
            assert is_rotation(compose_rpy(e), 1e-12)

    def test_intrinsic_equals_reversed_extrinsic(self):
        # Applying the same elemental rotations about world-fixed axes in
        # reverse order (each new factor premultiplies) gives the same
        # matrix as the intrinsic pitch-yaw-roll composition.
        rng = np.random.default_rng(11)
        for _ in range(100):
            p, y, r = rng.uniform(-math.pi, math.pi, size=3)
            extrinsic = rot_x_left(p) @ (rot_y_left(y) @ rot_z_left(r))
            assert np.abs(compose_pyr((p, y, r)) - extrinsic).max() < 1e-14


class TestIsRotation:
    def test_identity(self):
        assert is_rotation(np.eye(3), 1e-9)

    def test_reflection_rejected(self):
        assert not is_rotation(np.diag([1.0, 1.0, -1.0]), 0.5)

    def test_composed_rotations_pass(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert is_rotation(compose_pyr(rng.uniform(-math.pi, math.pi, 3)), 1e-9)

    def test_wrong_shape(self):
        assert not is_rotation(np.eye(4))
        assert not is_rotation([1.0, 0.0, 0.0])

    def test_nan_rejected(self):
        m = np.eye(3)
        m[1, 1] = math.nan
        assert not is_rotation(m)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            is_rotation(np.eye(3), 0.0)


class TestGeodesicDistance:
    def test_self_distance_is_zero(self):
        r = compose_pyr((0.5, -0.3, 0.9))
        assert geodesic_distance(r, r) < 1e-7

    @pytest.mark.parametrize("theta", [0.0, 0.25, -0.25, 1.0, -2.5, math.pi])
    def test_elemental_roll_gives_absolute_angle(self, theta):
        assert abs(geodesic_distance(np.eye(3), rot_z_left(theta)) - abs(theta)) < 1e-12

    def test_small_perturbation_matches_axis_angle_oracle(self):
        a = compose_pyr((0.1, 0.2, 0.3))
        b = compose_pyr((0.1, 0.2, 0.3 + 1e-3))
        d = geodesic_distance(a, b)
        assert abs(d - rotation_angle(a, b)) < 1e-9
        assert abs(d - 1e-3) < 1e-9

    def test_clamp_keeps_result_finite_above_trace_three(self):
        # Scaling by (1 + 2e-13) pushes tr(a a^T) slightly above 3 while
        # staying inside the SO(3) tolerance.
        r = compose_pyr((0.2, -0.7, 1.3)) * (1.0 + 2e-13)
        d = geodesic_distance(r, r)
        assert math.isfinite(d)
        assert d == 0.0

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            geodesic_distance(np.eye(3) * 2.0, np.eye(3))
        with pytest.raises(ValueError):
            geodesic_distance(np.eye(3), np.diag([1.0, 1.0, -1.0]))

    def test_metric_axioms_on_sampled_rotations(self):
        rng = np.random.default_rng(19)
        rots = [random_rotation(rng) for _ in range(25)]
        for i in range(10):
            a, b, c = rots[i], rots[i + 5], rots[i + 10]
            q = rots[i + 15]
            # symmetry is exact: same products, same summation order
            assert geodesic_distance(a, b) == geodesic_distance(b, a)
            # bi-invariance
            d = geodesic_distance(a, b)
            assert abs(geodesic_distance(q @ a, q @ b) - d) < 1e-12
            assert abs(geodesic_distance(a @ q, b @ q) - d) < 1e-12
            # triangle inequality with floating-point slack
            assert geodesic_distance(a, c) <= d + geodesic_distance(b, c) + 1e-12

    def test_zero_detection_thresholds(self):
        rng = np.random.default_rng(23)
        a = random_rotation(rng)
        # identical matrices: distance below the 1e-7 equality threshold
        assert geodesic_distance(a, a) < 1e-7
        # clearly separated matrices: distance above it
        b = a @ rot_z_left(2e-7)
        assert np.abs(a - b).max() > 1e-7
        assert geodesic_distance(a, b) > 1e-7
        # nearly identical matrices: both measures small
        c = a @ rot_z_left(1e-8)
        assert np.abs(a - c).max() < 1e-7
        assert geodesic_distance(a, c) < 1e-7

    @staticmethod
    def _pairs(seed, angles):
        # b = a turned by each angle about a random axis
        rng = np.random.default_rng(seed)
        for theta in angles:
            a, q = random_rotation(rng), random_rotation(rng)
            yield a, q @ rot_z_left(theta) @ q.T @ a

    def test_identical_pairs_are_exactly_zero(self):
        rng = np.random.default_rng(29)
        rots = np.stack([random_rotation(rng) for _ in range(50)])
        assert all(geodesic_distance(r, r.copy()) == 0.0 for r in rots)
        assert not _geodesic_rows(rots, rots.copy()).any()

    def test_small_angles_keep_relative_precision(self):
        # the arccos form returns 0 or 1.5e-8 for every angle near 1e-8;
        # the remaining gap is the oracle's own round-off
        angles = np.logspace(-8, -3, 60)
        for a, b in self._pairs(31, angles):
            ref = rotation_angle(a, b)
            assert abs(geodesic_distance(a, b) - ref) <= 1e-7 * ref

    def test_near_pi_pairs(self):
        angles = math.pi - np.logspace(-6, -1, 60)
        for a, b in self._pairs(37, angles):
            assert abs(geodesic_distance(a, b) - rotation_angle(a, b)) < 1e-9

    @pytest.mark.parametrize("pi_side", [False, True])
    def test_full_precision_near_zero_and_pi(self, pi_side):
        # b = a turned by eps or by pi - eps about x, y or z, with no BLAS
        # product: the angle with the trace form alone erred by up to 4.5e-8
        # near pi; both routes must land within a few ulps of the angle
        rng = np.random.default_rng(61)
        n = 1500
        a = np.stack([random_rotation(rng) for _ in range(n)])
        eps = 10.0 ** rng.uniform(-12.0, -3.0, n)
        angles = np.zeros((n, 3))
        angles[np.arange(n), np.arange(n) % 3] = math.pi - eps if pi_side else eps
        turn = _compose_rows(angles, "pyr")
        b = np.stack(_mul(a.reshape(-1, 9).T, turn.reshape(-1, 9).T), axis=-1).reshape(-1, 3, 3)
        rows = _geodesic_rows(a, b)
        scalar = np.array([geodesic_distance(x, y) for x, y in zip(a, b)])
        assert rows.tobytes() == scalar.tobytes()
        assert np.abs(rows - angles.sum(axis=1)).max() <= 2e-15


class TestBatchedKernels:
    def test_is_rotation_batch_matches_scalar(self):
        rng = np.random.default_rng(41)
        base = np.stack([random_rotation(rng) for _ in range(40)])
        # residuals straddling the tolerance, a reflection and a NaN
        scale = 1.0 + np.linspace(0.0, 1e-6, 40)[:, None, None]
        stack = base * scale
        stack[3] = np.diag([1.0, 1.0, -1.0])
        stack[7, 1, 1] = math.nan
        for tol in (1e-9, 1e-6):
            mask = _is_rotation_batch(stack, tol)
            assert mask.tolist() == [is_rotation(m, tol) for m in stack]
        assert 0 < _is_rotation_batch(stack, 1e-6).sum() < 40
        assert _is_rotation_batch(np.empty((0, 3, 3)), 1e-9).shape == (0,)

    def test_compose_batch_matches_scalar(self):
        # numpy's vectorised sin/cos may differ from libm in the last bit,
        # so only closeness is portable; read_labels keeps a margin for it
        rng = np.random.default_rng(43)
        angles = rng.uniform(-math.pi, math.pi, (64, 3))
        pyr, rpy = _compose_rows(angles, "pyr"), _compose_rows(angles, "rpy")
        for k, e in enumerate(angles):
            assert np.abs(pyr[k] - compose_pyr(e)).max() <= 1e-15
            assert np.abs(rpy[k] - compose_rpy(e)).max() <= 1e-15

    def test_geodesic_batch_equals_scalar_and_is_symmetric(self):
        rng = np.random.default_rng(47)
        a = np.stack([random_rotation(rng) for _ in range(64)])
        b = np.stack([random_rotation(rng) for _ in range(64)])
        b[:8] = a[:8] @ rot_z_left(1e-7)
        b[8:16] = a[8:16] @ rot_z_left(math.pi - 1e-5)
        b[16] = a[16]
        d = _geodesic_rows(a, b)
        assert d.tolist() == [geodesic_distance(x, y) for x, y in zip(a, b)]
        assert np.array_equal(d, _geodesic_rows(b, a))

    def test_gaps_and_view_distances_equal_the_scalar_ones(self):
        # read_labels accepts a chunk in bulk when these pass, with no
        # margin, so they must equal record_from_dict's bit for bit
        rng = np.random.default_rng(53)
        haar = np.stack([random_rotation(rng) for _ in range(2000)])
        e = rng.uniform(-math.pi, math.pi, (1000, 3))
        e[:, 1] = rng.choice([-1.0, 1.0], 1000) * math.pi / 2 + rng.uniform(
            -10 * GIMBAL_EPS, 10 * GIMBAL_EPS, 1000)
        rows = np.concatenate([haar, _compose_rows(e[:500], "pyr"), _compose_rows(e[500:], "rpy")])
        # scaled rows have residuals up to about the file tolerance
        scaled = rows * (1.0 + rng.uniform(-1e-6, 1e-6, len(rows)))[:, None, None]
        for stack in (rows, scaled):
            batch = np.array(_so3_gaps(stack.reshape(-1, 9).T)).T
            scalar = np.array([_so3_gaps(r.ravel().tolist()) for r in stack])
            assert batch.tobytes() == scalar.tobytes()
        for convention, compose in (("pyr", compose_pyr), ("rpy", compose_rpy)):
            angles = _euler_rows(rows, convention)[0]
            views = np.degrees(angles + rng.uniform(-2e-6, 2e-6, angles.shape))
            batch = _geodesic_rows(_compose_rows(np.radians(views), convention), rows)
            scalar = [
                geodesic_distance(compose([math.radians(v) for v in view]), r, tol=1e-6)
                for view, r in zip(views.tolist(), rows)
            ]
            assert batch.tobytes() == np.array(scalar).tobytes()

    def test_geodesic_rows_use_math_atan2(self):
        # 2 atan2(s, c) on Python floats: s^2 = |a - b|_F^2 / 8, and c from
        # the trace of p = a b^T up to pi/2, from Shepperd's branch of the
        # largest diagonal entry beyond; numpy's arctan2 would make the bytes
        # follow the CPU's SIMD level (its AVX-512 loop rounds differently
        # from its baseline loop)
        rng = np.random.default_rng(59)
        a = np.stack([random_rotation(rng) for _ in range(3000)])
        b = np.stack([random_rotation(rng) for _ in range(3000)])
        b[:200] = a[:200]
        eps = np.concatenate([np.zeros(50), np.logspace(-12, -3, 950)])
        b[200:1200] = [x @ rot_z_left(math.pi - e) for x, e in zip(a[200:1200], eps)]

        def sum9(v):
            return (v[0] + v[1] + v[2]) + (v[3] + v[4] + v[5]) + (v[6] + v[7] + v[8])

        want = []
        for x, y in zip(a.reshape(-1, 9).tolist(), b.reshape(-1, 9).tolist()):
            p = [[x[3 * i] * y[3 * j] + x[3 * i + 1] * y[3 * j + 1] + x[3 * i + 2] * y[3 * j + 2]
                  for j in range(3)] for i in range(3)]
            tr = p[0][0] + p[1][1] + p[2][2]
            s2 = sum9([(u - v) * (u - v) for u, v in zip(x, y)]) / 8.0
            c2 = (1.0 + tr) / 4.0
            if s2 <= c2:
                c = math.sqrt(c2)
            else:
                i = max(range(3), key=lambda k: p[k][k])
                j, k = (i + 1) % 3, (i + 2) % 3
                c = abs(p[k][j] - p[j][k]) / (2.0 * math.sqrt(1.0 + 2.0 * p[i][i] - tr))
            want.append(2.0 * math.atan2(math.sqrt(s2), c))
        assert _geodesic_rows(a, b).tobytes() == np.array(want).tobytes()


class TestWrapAngle:
    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_range_and_equivalence(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        assert abs(math.sin(w) - math.sin(theta)) < 1e-9
        assert abs(math.cos(w) - math.cos(theta)) < 1e-9

    def test_boundaries(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(0.0) == 0.0

    def test_in_range_values_untouched(self):
        assert wrap_angle(1.234567) == 1.234567
        assert wrap_angle(-3.1) == -3.1

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, theta):
        with pytest.raises(ValueError, match="finite"):
            wrap_angle(theta)
