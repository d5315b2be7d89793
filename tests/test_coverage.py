import math

import numpy as np
import pytest

from rotkit import (
    SpiralSpec,
    canonical_pyr,
    densify_rolls,
    euler_range_stats,
    geodesic_distance,
    is_rotation,
    pca_project,
    pose_stream,
    random_rotation,
    spiral_rotations,
)

HAAR_MEAN_ANGLE = math.pi / 2 + 2 / math.pi  # analytic mean angle to identity


class TestSpiral:
    def test_single_pose(self):
        spec = SpiralSpec(count=1, turns=1.0, pitch_min=-0.5, pitch_max=0.5)
        (r,) = spiral_rotations(spec)
        e = canonical_pyr(r)
        assert abs(e.pitch - (-0.5)) < 1e-12
        assert e.yaw == 0.0
        assert e.roll == 0.0

    def test_default_sweep_has_exactly_zero_rolls(self):
        rotations = spiral_rotations(SpiralSpec())
        assert len(rotations) == 1440
        for r in rotations:
            assert abs(canonical_pyr(r).roll) < 1e-10

    def test_pure_yaw_sweep(self):
        spec = SpiralSpec(count=64, turns=1.0, pitch_min=0.0, pitch_max=0.0)
        for r in spiral_rotations(spec):
            e = canonical_pyr(r)
            assert abs(e.pitch) < 1e-12
            assert abs(e.roll) < 1e-12

    def test_yaw_stays_in_primary_range(self):
        for r in spiral_rotations(SpiralSpec(count=500, turns=3.0)):
            assert abs(canonical_pyr(r).yaw) <= math.pi / 2

    def test_awkward_counts_never_hit_the_lock(self):
        # counts whose sample grid lands on the triangle-wave apex
        for count in (1441, 97, 2):
            for r in spiral_rotations(SpiralSpec(count=count, turns=8.0)):
                assert abs(canonical_pyr(r).roll) < 1e-10

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SpiralSpec(count=0)
        with pytest.raises(ValueError):
            SpiralSpec(turns=0.0)
        with pytest.raises(ValueError):
            SpiralSpec(pitch_min=0.5, pitch_max=-0.5)
        with pytest.raises(ValueError):
            SpiralSpec(pitch_min=-math.pi / 2, pitch_max=0.0)


class TestDensifyRolls:
    def test_empty(self):
        assert densify_rolls([], math.radians(20), seed=0) == []

    def test_output_count(self):
        poses = spiral_rotations(SpiralSpec(count=30))
        out = densify_rolls(poses, math.radians(20), seed=1, multiplier=2)
        assert len(out) == 60

    def test_outputs_are_rotations(self):
        poses = spiral_rotations(SpiralSpec(count=25))
        for r in densify_rolls(poses, math.radians(20), seed=2):
            assert is_rotation(r, 1e-12)

    def test_deterministic_and_order_independent_streams(self):
        poses = spiral_rotations(SpiralSpec(count=10))
        a = densify_rolls(poses, math.radians(15), seed=3)
        b = densify_rolls(poses, math.radians(15), seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        # per-index streams: pose 0 draws the same with or without the rest
        c = densify_rolls(poses[:1], math.radians(15), seed=3)
        np.testing.assert_array_equal(a[0], c[0])
        np.testing.assert_array_equal(a[1], c[1])

    def test_multiplier_validation(self):
        with pytest.raises(ValueError):
            densify_rolls([np.eye(3)], 0.1, seed=0, multiplier=0)

    def test_rotation_branch_fills_roll_range(self):
        # Force the rotation branch by drawing ops directly and keeping
        # rotate draws: the extracted rolls must populate every 5-degree
        # bin of [-20, 20] over 10^4 zero-roll inputs.
        from rotkit import random_augment

        budget = math.radians(20)
        rng = pose_stream(99)
        rolls = []
        base = spiral_rotations(SpiralSpec(count=100))
        i = 0
        while len(rolls) < 10_000:
            r = base[i % len(base)]
            i += 1
            out, op = random_augment(r, budget, rng)
            if op.kind == "rotate":
                rolls.append(math.degrees(canonical_pyr(out).roll))
        hist, _ = np.histogram(rolls, bins=8, range=(-20.0, 20.0))
        assert hist.min() > 0


class TestRandomRotation:
    def test_deterministic(self):
        a = random_rotation(pose_stream(5))
        b = random_rotation(pose_stream(5))
        np.testing.assert_array_equal(a, b)

    def test_in_so3(self):
        rng = pose_stream(6)
        for _ in range(200):
            assert is_rotation(random_rotation(rng), 1e-12)

    def test_mean_angle_matches_haar_density(self):
        rng = pose_stream(7)
        n = 10_000
        total = 0.0
        eye = np.eye(3)
        for _ in range(n):
            total += geodesic_distance(random_rotation(rng), eye)
        mean = total / n
        # sigma of the angle is ~0.646 rad; 3 sigma / sqrt(n) is ~0.02 rad
        assert abs(mean - HAAR_MEAN_ANGLE) < math.radians(1.5)

    def test_mean_trace_is_zero(self):
        rng = pose_stream(8)
        n = 10_000
        total = sum(float(np.trace(random_rotation(rng))) for _ in range(n))
        # Var(trace) = 1 under Haar; allow 3 sigma
        assert abs(total / n) < 3.0 / math.sqrt(n)


class TestPca:
    def test_identical_inputs_project_to_origin(self):
        vectors = [np.eye(3).reshape(9)] * 10
        result = pca_project(vectors)
        np.testing.assert_allclose(result.projected, 0.0, atol=1e-12)
        np.testing.assert_allclose(result.explained_variance, 0.0, atol=1e-12)

    def test_line_in_9_space(self):
        rng = np.random.default_rng(89)
        direction = rng.normal(size=9)
        direction /= np.linalg.norm(direction)
        origin = rng.normal(size=9)
        t = rng.normal(size=40)
        vectors = origin + np.outer(t, direction)
        result = pca_project(vectors)
        line_variance = float(np.var(t, ddof=1))
        assert abs(result.explained_variance[0] - line_variance) < 1e-10 * max(1.0, line_variance)
        assert result.explained_variance[1] < 1e-10
        assert result.explained_variance[2] < 1e-10
        # component aligns with the line direction (sign-fixed)
        overlap = abs(float(result.components[0] @ direction))
        assert abs(overlap - 1.0) < 1e-8

    def test_eigenvalue_sum_equals_covariance_trace(self):
        rng = np.random.default_rng(97)
        vectors = [random_rotation(rng).reshape(9) for _ in range(300)]
        x = np.asarray(vectors)
        cov = (x - x.mean(0)).T @ (x - x.mean(0)) / (len(vectors) - 1)
        result = pca_project(vectors)
        assert abs(result.eigenvalues.sum() - np.trace(cov)) < 1e-10

    def test_components_orthonormal_and_variances_descending(self):
        rng = np.random.default_rng(101)
        vectors = [random_rotation(rng).reshape(9) for _ in range(200)]
        result = pca_project(vectors)
        gram = result.components @ result.components.T
        assert np.abs(gram - np.eye(3)).max() < 1e-10
        ev = result.explained_variance
        assert ev[0] >= ev[1] >= ev[2] >= 0.0

    def test_matches_numpy_eigendecomposition(self):
        rng = np.random.default_rng(103)
        x = rng.normal(size=(60, 9))
        result = pca_project(list(x))
        cov = np.cov(x, rowvar=False, ddof=1)
        expected = np.sort(np.linalg.eigvalsh(cov))[::-1]
        np.testing.assert_allclose(result.eigenvalues, expected, atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(107)
        x = rng.normal(size=(50, 9))
        result = pca_project(list(x))
        for comp in result.components:
            assert comp[int(np.argmax(np.abs(comp)))] > 0

    def test_transform_of_mean_is_origin(self):
        rng = np.random.default_rng(109)
        x = rng.normal(size=(30, 9))
        result = pca_project(list(x))
        np.testing.assert_allclose(result.transform(result.mean), 0.0, atol=1e-12)

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError):
            pca_project([np.zeros(9)])
        with pytest.raises(ValueError):
            pca_project(np.zeros((5, 9)), k=10)


class TestEulerRangeStats:
    def test_single_identity(self):
        stats = euler_range_stats([np.eye(3)])
        assert stats.count == 1
        assert stats.pitch_deg == (0.0, 0.0)
        assert stats.yaw_deg == (0.0, 0.0)
        assert stats.roll_deg == (0.0, 0.0)

    def test_spiral_rolls_and_yaw_bounds(self):
        stats = euler_range_stats(spiral_rotations(SpiralSpec(count=720)))
        assert abs(stats.roll_deg[0]) < 1e-8
        assert abs(stats.roll_deg[1]) < 1e-8
        assert stats.yaw_deg[0] >= -90.0 and stats.yaw_deg[1] <= 90.0

    def test_random_rotations_cover_full_pitch_and_roll(self):
        rng = pose_stream(11)
        stats = euler_range_stats([random_rotation(rng) for _ in range(1000)])
        assert -90.0 <= stats.yaw_deg[0] and stats.yaw_deg[1] <= 90.0
        assert stats.pitch_deg[0] < -90.0 and stats.pitch_deg[1] > 90.0
        assert stats.roll_deg[0] < -90.0 and stats.roll_deg[1] > 90.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            euler_range_stats([])
