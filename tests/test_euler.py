import math

import numpy as np
import pytest

from helpers import rotation_angle
from rotkit import (
    GIMBAL_EPS,
    EulerPYR,
    EulerRPY,
    canonical_pyr,
    compose_pyr,
    compose_rpy,
    extract_pyr,
    extract_rpy,
    pyr_to_rpy,
    random_rotation,
    rpy_to_pyr,
)
from rotkit.core import _compose_rows, _geodesic_rows
from rotkit.euler import _euler_rows

# 300W-LP carries labels like this one whose yaw sits a fraction of a
# millidegree off -90: the matrix itself is Gimbal-locked even though the
# labeled yaw is not exactly -90.
GIMBAL_LABEL_DEG = (-16.090911401458296, -89.9985818251308, -6.854511900533989)
GIMBAL_SUM_DEG = -22.94542388660367


class TestExtractPyr:
    def test_identity(self):
        sol = extract_pyr(np.eye(3))
        assert sol.kind == "regular"
        assert sol.primary == EulerPYR(0.0, 0.0, 0.0)
        # the alternate representation of the identity is (pi, pi, pi)
        assert np.allclose(sol.secondary, (math.pi, math.pi, math.pi))

    def test_regular_round_trip(self):
        sol = extract_pyr(compose_pyr((0.3, 0.5, -0.2)))
        assert sol.kind == "regular"
        np.testing.assert_allclose(sol.primary, (0.3, 0.5, -0.2), atol=1e-12)

    def test_gimbal_locked_label(self):
        r = compose_pyr([math.radians(v) for v in GIMBAL_LABEL_DEG])
        sol = extract_pyr(r)
        assert sol.kind == "gimbal_down"
        assert sol.secondary is None
        assert abs(math.degrees(sol.gimbal_sum) - GIMBAL_SUM_DEG) < 1e-3
        assert sol.primary.yaw == -math.pi / 2
        assert sol.primary.pitch == sol.primary.roll
        assert abs(sol.gimbal_sum - (sol.primary.pitch + sol.primary.roll)) < 1e-15

    def test_gimbal_up_branch(self):
        r = compose_pyr((0.4, math.pi / 2, -0.1))
        sol = extract_pyr(r)
        assert sol.kind == "gimbal_up"
        assert sol.primary.roll == -sol.primary.pitch
        # only pitch - roll is determined; reconstruction must still match
        assert abs(sol.gimbal_sum - (0.4 - (-0.1))) < 1e-12
        assert np.abs(compose_pyr(sol.primary) - r).max() < 1e-12

    def test_gimbal_down_exact(self):
        r = compose_pyr((-0.7, -math.pi / 2, 0.2))
        sol = extract_pyr(r)
        assert sol.kind == "gimbal_down"
        assert abs(sol.gimbal_sum - (-0.7 + 0.2)) < 1e-12
        assert np.abs(compose_pyr(sol.primary) - r).max() < 1e-12

    def test_both_solutions_reproduce_source(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(2000):
            r = random_rotation(rng)
            sol = extract_pyr(r)
            assert sol.kind == "regular"
            for euler in (sol.primary, sol.secondary):
                worst = max(worst, rotation_angle(compose_pyr(euler), r))
        assert worst < 1e-9

    def test_solution_duality(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            sol = extract_pyr(random_rotation(rng))
            diff = np.abs(compose_pyr(sol.primary) - compose_pyr(sol.secondary)).max()
            assert diff < 1e-12

    def test_angle_ranges(self):
        rng = np.random.default_rng(107)
        for _ in range(500):
            sol = extract_pyr(random_rotation(rng))
            for euler in (sol.primary, sol.secondary):
                for v in euler:
                    assert -math.pi < v <= math.pi
            assert -math.pi / 2 <= sol.primary.yaw <= math.pi / 2

    def test_gimbal_branch_ranges(self):
        rng = np.random.default_rng(109)
        for sign in (1.0, -1.0):
            for _ in range(50):
                p, r = rng.uniform(-math.pi, math.pi, size=2)
                sol = extract_pyr(compose_pyr((p, sign * math.pi / 2, r)))
                assert sol.kind in ("gimbal_up", "gimbal_down")
                assert -math.pi / 2 <= sol.primary.pitch <= math.pi / 2
                assert -math.pi / 2 <= sol.primary.roll <= math.pi / 2

    def test_branch_continuity_near_lock(self):
        # In the transition band either branch reconstructs the rotation
        # to within a small multiple of the distance from the pole.
        for delta in (1e-3, 1e-5):
            for p, r in ((0.4, -0.9), (-1.2, 0.3)):
                src = compose_pyr((p, math.pi / 2 - delta, r))
                regular = extract_pyr(src, gimbal_eps=1e-9)
                assert regular.kind == "regular"
                locked = extract_pyr(src, gimbal_eps=1e-2)
                assert locked.kind == "gimbal_up"
                for sol in (regular, locked):
                    err = rotation_angle(compose_pyr(sol.primary), src)
                    assert err < 10.0 * delta + 1e-9
        src = compose_pyr((0.4, math.pi / 2, -0.9))
        locked = extract_pyr(src)
        assert locked.kind == "gimbal_up"
        assert rotation_angle(compose_pyr(locked.primary), src) < 1e-9

    def test_near_band_regular_extraction_is_accurate(self):
        src = compose_pyr((0.8, math.pi / 2 - 2e-4, -0.3))
        sol = extract_pyr(src)
        assert sol.kind == "regular"
        assert rotation_angle(compose_pyr(sol.primary), src) < 1e-9

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            extract_pyr(np.eye(3) * 1.5)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            extract_pyr(np.eye(3), gimbal_eps=0.0)


class TestCanonicalPyr:
    def test_identity(self):
        assert canonical_pyr(np.eye(3)) == EulerPYR(0.0, 0.0, 0.0)

    def test_label_round_trip(self):
        deg = (6.208, 5.876, -1.694)
        e = canonical_pyr(compose_pyr([math.radians(v) for v in deg]))
        for got, want in zip(e, deg):
            assert abs(math.degrees(got) - want) < 1e-9

    def test_out_of_range_yaw_gets_canonical_representation(self):
        src = compose_pyr((0.1, 2.8, 0.1))
        e = canonical_pyr(src)
        assert -math.pi / 2 <= e.yaw <= math.pi / 2
        assert rotation_angle(compose_pyr(e), src) < 1e-9


class TestExtractRpy:
    def test_identity(self):
        sol = extract_rpy(np.eye(3))
        assert sol.kind == "regular"
        assert sol.value == EulerRPY(0.0, 0.0, 0.0)

    def test_round_trip(self):
        sol = extract_rpy(compose_rpy((0.2, 0.4, -0.6)))
        assert sol.kind == "regular"
        np.testing.assert_allclose(sol.value, (0.2, 0.4, -0.6), atol=1e-12)

    def test_zero_roll_pyr_maps_to_rpy_directly(self):
        p, y = 0.35, -0.9
        sol = extract_rpy(compose_pyr((p, y, 0.0)))
        np.testing.assert_allclose(sol.value, (0.0, p, y), atol=1e-12)

    def test_gimbal_split_reproduces_source(self):
        rng = np.random.default_rng(113)
        for pitch in (math.pi / 2, -math.pi / 2):
            for _ in range(50):
                rr, yy = rng.uniform(-math.pi, math.pi, size=2)
                src = compose_rpy((rr, pitch, yy))
                sol = extract_rpy(src)
                assert sol.kind == "gimbal"
                assert np.abs(compose_rpy(sol.value) - src).max() < 1e-12

    def test_round_trip_over_random_rotations(self):
        rng = np.random.default_rng(127)
        worst = 0.0
        for _ in range(2000):
            r = random_rotation(rng)
            sol = extract_rpy(r)
            assert sol.kind == "regular"
            worst = max(worst, rotation_angle(compose_rpy(sol.value), r))
        assert worst < 1e-9

    def test_pitch_range(self):
        rng = np.random.default_rng(131)
        for _ in range(300):
            sol = extract_rpy(random_rotation(rng))
            assert -math.pi / 2 <= sol.value.pitch <= math.pi / 2


class TestConversions:
    def test_zeros(self):
        assert pyr_to_rpy((0.0, 0.0, 0.0)) == EulerRPY(0.0, 0.0, 0.0)
        assert rpy_to_pyr((0.0, 0.0, 0.0)) == EulerPYR(0.0, 0.0, 0.0)

    def test_zero_roll_is_a_relabeling(self):
        p, y = 0.5, -0.8
        np.testing.assert_allclose(pyr_to_rpy((p, y, 0.0)), (0.0, p, y), atol=1e-12)
        np.testing.assert_allclose(rpy_to_pyr((0.0, p, y)), (p, y, 0.0), atol=1e-12)

    def test_sample_pose_frobenius(self):
        e = tuple(math.radians(v) for v in (20.0, -50.0, 11.0))
        out = pyr_to_rpy(e)
        diff = compose_rpy(out) - compose_pyr(e)
        assert np.linalg.norm(diff) < 1e-10

    def test_conversion_fidelity_over_random_triples(self):
        rng = np.random.default_rng(137)
        worst = 0.0
        for _ in range(1000):
            e = tuple(rng.uniform(-math.pi, math.pi, size=3))
            diff = compose_rpy(pyr_to_rpy(e)) - compose_pyr(e)
            worst = max(worst, float(np.linalg.norm(diff)))
        assert worst < 1e-9

    def test_rpy_to_pyr_round_trip(self):
        rng = np.random.default_rng(139)
        for _ in range(500):
            e = tuple(rng.uniform(-math.pi, math.pi, size=3))
            out = rpy_to_pyr(e)
            assert rotation_angle(compose_pyr(out), compose_rpy(e)) < 1e-9

    def test_boundary_angles_stay_wrapped(self):
        src = compose_pyr((math.pi, 0.0, math.pi))
        out = pyr_to_rpy((math.pi, 0.0, math.pi))
        for v in out:
            assert -math.pi < v <= math.pi
        assert rotation_angle(compose_rpy(out), src) < 1e-9


class TestMiddleAngle:
    """The middle angle is atan2 of its sine and cos = hypot of the last
    angle's entries.  Taken as asin of the sine, it lost digits as the
    middle angle neared +/-pi/2: its error grew as ulp / cos(middle)."""

    @pytest.mark.parametrize("convention", ["pyr", "rpy"])
    def test_just_outside_the_lock_band(self, convention):
        compose, extract = {
            "pyr": (compose_pyr, lambda r: extract_pyr(r).primary),
            "rpy": (compose_rpy, lambda r: extract_rpy(r).value),
        }[convention]
        rng = np.random.default_rng(149)
        worst = 0.0
        for _ in range(1000):
            cos = GIMBAL_EPS * rng.uniform(1.0 + 1e-6, 1.5)
            middle = math.copysign(math.acos(cos), rng.uniform(-1.0, 1.0))
            first, last = rng.uniform(-math.pi, math.pi, 2)
            got = extract(compose((first, middle, last)))
            worst = max(worst, abs(got[1] - middle))
        assert worst <= 4e-16

    def test_round_trip_over_haar_rotations(self):
        rng = np.random.default_rng(151)
        stack = np.stack([random_rotation(rng) for _ in range(100_000)])
        for convention in ("pyr", "rpy"):
            angles, locked = _euler_rows(stack, convention)
            assert not locked.any()
            worst = _geodesic_rows(_compose_rows(angles, convention), stack).max()
            assert worst <= 1e-13
