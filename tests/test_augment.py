import math

import numpy as np
import pytest
import scipy.stats

from helpers import angle_diff
from rotkit import (
    AugmentOp,
    apply_augment,
    canonical_pyr,
    compose_pyr,
    corollary_case,
    flip_image_label,
    is_rotation,
    map_pixel,
    pose_stream,
    random_augment,
    random_rotation,
    read_labels,
    rot_z_left,
    rotate_image_label,
)
from rotkit.augment import _philox_raw
from rotkit.cli import main

_T = np.diag([1.0, -1.0, 1.0])
_FLIP_X = np.diag([-1.0, 1.0, 1.0])


def project_point(r, q, width, height, scale=40.0):
    """Test-side orthographic projection of a head-frame point to pixels."""
    v = _T @ np.asarray(r, float) @ _T @ np.asarray(q, float)
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    return np.array([cx + scale * v[0], cy + scale * v[1]])


class TestRotateImageLabel:
    def test_zero_angle_is_identity(self):
        r = compose_pyr((0.4, -0.2, 1.1))
        np.testing.assert_array_equal(rotate_image_label(r, 0.0), r)

    def test_identity_pose_gains_negative_roll(self):
        for phi in (-2.5, -0.4, 0.9, 2.0):
            out = rotate_image_label(np.eye(3), phi)
            assert np.abs(out - rot_z_left(-phi)).max() < 1e-15
            assert abs(angle_diff(canonical_pyr(out).roll, -phi)) < 1e-10

    def test_group_action_additivity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = random_rotation(rng)
            p1, p2 = rng.uniform(-math.pi, math.pi, size=2)
            twice = rotate_image_label(rotate_image_label(r, p1), p2)
            once = rotate_image_label(r, p1 + p2)
            assert np.abs(twice - once).max() < 1e-13

    def test_rejects_non_rotation_and_non_finite(self):
        with pytest.raises(ValueError):
            rotate_image_label(np.eye(3) * 2, 0.1)
        with pytest.raises(ValueError):
            rotate_image_label(np.eye(3), math.nan)


class TestFlipImageLabel:
    def test_horizontal_flip_mirrors_yaw_and_roll(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p, y, r = rng.uniform(-math.pi, math.pi, size=3)
            flipped = flip_image_label(compose_pyr((p, y, r)), math.pi / 2)
            assert np.abs(flipped - compose_pyr((p, -y, -r))).max() < 1e-12

    def test_vertical_flip_of_frontal_face_is_upside_down(self):
        out = flip_image_label(np.eye(3), 0.0)
        np.testing.assert_array_equal(out, np.diag([-1.0, -1.0, 1.0]))
        assert abs(angle_diff(canonical_pyr(out).roll, math.pi)) < 1e-12

    def test_diagonal_flip_of_identity(self):
        out = flip_image_label(np.eye(3), math.pi / 4)
        expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(out - expected).max() < 1e-15

    def test_involution(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            r = random_rotation(rng)
            theta = rng.uniform(-math.pi, math.pi)
            assert np.abs(flip_image_label(flip_image_label(r, theta), theta) - r).max() < 1e-13

    def test_outputs_stay_in_so3(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            r = random_rotation(rng)
            assert is_rotation(flip_image_label(r, rng.uniform(-9, 9)), 1e-12)
            assert is_rotation(rotate_image_label(r, rng.uniform(-9, 9)), 1e-12)

    def test_theta_periodic_modulo_pi(self):
        r = compose_pyr((0.3, -0.8, 0.5))
        theta = 0.37
        assert np.abs(flip_image_label(r, theta) - flip_image_label(r, theta + math.pi)).max() < 1e-12


class TestCorollaryCases:
    @pytest.mark.parametrize(
        "case,theta",
        [("horizontal", math.pi / 2), ("vertical", 0.0), ("diagonal", math.pi / 4)],
    )
    def test_flip_cases_match_general_formula(self, case, theta):
        rng = np.random.default_rng(21)
        for _ in range(100):
            r = random_rotation(rng)
            assert np.abs(corollary_case(r, case) - flip_image_label(r, theta)).max() < 1e-15

    def test_rot45_matches_general_rotation(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            r = random_rotation(rng)
            np.testing.assert_array_equal(
                corollary_case(r, "rot45"), rotate_image_label(r, math.pi / 4)
            )

    def test_both_axes_equals_two_perpendicular_flips(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            r = random_rotation(rng)
            composed = flip_image_label(flip_image_label(r, 0.0), math.pi / 2)
            direct = corollary_case(r, "both_axes")
            assert np.abs(composed - direct).max() < 1e-13
            np.testing.assert_array_equal(direct, np.diag([-1.0, -1.0, 1.0]) @ r)

    def test_frontal_face_is_mirror_symmetric(self):
        np.testing.assert_array_equal(corollary_case(np.eye(3), "horizontal"), np.eye(3))

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            corollary_case(np.eye(3), "sideways")


class TestEulerMirrorAndRollShift:
    def test_euler_mirror_law(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            p = rng.uniform(-math.pi, math.pi)
            r = rng.uniform(-math.pi, math.pi)
            y = rng.uniform(-math.pi / 2 + 1e-2, math.pi / 2 - 1e-2)
            got = canonical_pyr(flip_image_label(compose_pyr((p, y, r)), math.pi / 2))
            assert abs(angle_diff(got.pitch, p)) < 1e-10
            assert abs(angle_diff(got.yaw, -y)) < 1e-10
            assert abs(angle_diff(got.roll, -r)) < 1e-10

    def test_roll_shift_law_at_frontal_pose(self):
        for phi in np.linspace(-math.pi, math.pi, 25):
            got = canonical_pyr(rotate_image_label(np.eye(3), float(phi)))
            assert abs(angle_diff(got.roll, -float(phi))) < 1e-10
            assert abs(got.pitch) < 1e-10
            assert abs(got.yaw) < 1e-10


class TestRandomAugment:
    def test_budget_validation(self):
        rng = pose_stream(0)
        with pytest.raises(ValueError):
            random_augment(np.eye(3), -0.1, rng)
        with pytest.raises(ValueError):
            random_augment(np.eye(3), math.pi / 2 + 0.1, rng)

    def test_zero_budget_degenerates(self):
        r = compose_pyr((0.2, 0.4, -0.3))
        mirror = flip_image_label(r, math.pi / 2)
        for seed in range(20):
            out, op = random_augment(r, 0.0, pose_stream(seed))
            if op.kind == "rotate":
                np.testing.assert_array_equal(out, r)
            else:
                np.testing.assert_array_equal(out, mirror)

    def test_deterministic_given_seed(self):
        r = compose_pyr((0.2, 0.4, -0.3))
        a, op_a = random_augment(r, math.radians(20), pose_stream(42, 7))
        b, op_b = random_augment(r, math.radians(20), pose_stream(42, 7))
        np.testing.assert_array_equal(a, b)
        assert op_a == op_b

    def test_distinct_record_streams_differ(self):
        r = compose_pyr((0.2, 0.4, -0.3))
        _, op_a = random_augment(r, math.radians(20), pose_stream(42, 0))
        _, op_b = random_augment(r, math.radians(20), pose_stream(42, 1))
        assert op_a != op_b

    @pytest.mark.parametrize("seed", [0, 1, 2024, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("start", [0, 5, 2**63 - 1, 2**64 - 2])
    def test_philox_words_match_numpy(self, seed, start):
        # the batched Philox4x64-10 against numpy's bit generator, keyed as
        # pose_stream keys it; the key's index word wraps at 2**64
        for count in range(2, 11):
            got = _philox_raw(seed, start, 3, count)
            assert got.dtype == np.uint64 and got.shape == (3, count)
            for i in range(3):
                key = seed | ((start + i) % 2**64) << 64
                want = np.random.Philox(key=key).random_raw(count)
                assert got[i].tolist() == want.tolist(), (count, i)
                assert pose_stream(seed, start + i).bit_generator.random_raw(count).tolist() == \
                    want.tolist()

    def test_branch_ratio_and_angle_uniformity(self):
        budget = math.radians(20)
        rng = pose_stream(2024)
        r = np.eye(3)
        rot_angles, flip_angles = [], []
        n = 10_000
        for _ in range(n):
            _, op = random_augment(r, budget, rng)
            (rot_angles if op.kind == "rotate" else flip_angles).append(op.angle)
        # branch split within 3 sigma of one half
        assert abs(len(rot_angles) - n / 2) <= 3 * math.sqrt(n * 0.25)
        # each angle distribution uniform over its interval (chi-square, alpha=0.01)
        crit = scipy.stats.chi2.ppf(0.99, df=19)
        for values, lo, hi in (
            (rot_angles, -budget, budget),
            (flip_angles, math.pi / 2 - budget, math.pi / 2),
        ):
            hist, _ = np.histogram(values, bins=20, range=(lo, hi))
            assert hist.sum() == len(values)  # nothing outside the interval
            expected = len(values) / 20
            stat = float(((hist - expected) ** 2 / expected).sum())
            assert stat < crit


class TestMapPixel:
    def test_rotate_by_zero_is_identity(self):
        pt = map_pixel(AugmentOp("rotate", 0.0), (12.5, 80.0), 100, 100)
        assert pt == (12.5, 80.0)

    def test_horizontal_flip_mirrors_x(self):
        w, h = 200, 120
        pt = map_pixel(AugmentOp("flip", math.pi / 2), (30.0, 45.0), w, h)
        assert abs(pt.x - (w - 1 - 30.0)) < 1e-9
        assert abs(pt.y - 45.0) < 1e-9

    def test_vertical_flip_mirrors_y(self):
        w, h = 200, 120
        pt = map_pixel(AugmentOp("flip", 0.0), (30.0, 45.0), w, h)
        assert abs(pt.x - 30.0) < 1e-9
        assert abs(pt.y - (h - 1 - 45.0)) < 1e-9

    def test_quarter_turn_moves_corner(self):
        n = 101
        pt = map_pixel(AugmentOp("rotate", math.pi / 2), (0.0, 0.0), n, n)
        # independent affine computation: spin (x, y) - c by the screen
        # rotation [[c, s], [-s, c]] about the center c
        c = (n - 1) / 2.0
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]]) @ np.array([0.0 - c, 0.0 - c]) + c
        assert abs(pt.x - expected[0]) < 1e-9
        assert abs(pt.y - expected[1]) < 1e-9
        assert abs(pt.x - 0.0) < 1e-9
        assert abs(pt.y - (n - 1)) < 1e-9

    def test_flip_line_period(self):
        a = map_pixel(AugmentOp("flip", 0.4), (10.0, 20.0), 64, 64)
        b = map_pixel(AugmentOp("flip", 0.4 + math.pi), (10.0, 20.0), 64, 64)
        assert abs(a.x - b.x) < 1e-9 and abs(a.y - b.y) < 1e-9

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            map_pixel(AugmentOp("rotate", 0.1), (0.0, 0.0), 0, 10)
        for width, height in [(math.nan, 10), (10, math.inf), (-math.inf, math.nan)]:
            with pytest.raises(ValueError, match="finite and positive"):
                map_pixel(AugmentOp("rotate", 0.1), (0.0, 0.0), width, height)
        # a non-finite point gave (nan, nan) or (inf, -inf), and a finite
        # one whose moved offset overflows gave x=inf
        for pt in [(math.nan, 2.0), (1.0, math.inf), (-math.inf, math.nan), (1.5e308, 1.5e308)]:
            with pytest.raises(ValueError, match="point must be finite"):
                map_pixel(AugmentOp("rotate", 0.3), pt, 10, 10)


class TestPixelLabelConsistency:
    """Transforming pixels and labels with the same op keeps them consistent."""

    def test_rotate(self):
        rng = np.random.default_rng(41)
        w = h = 200
        for _ in range(50):
            r = random_rotation(rng)
            phi = rng.uniform(-math.pi, math.pi)
            r2 = rotate_image_label(r, phi)
            op = AugmentOp("rotate", phi)
            for _ in range(3):
                q = rng.normal(size=3)
                before = project_point(r, q, w, h)
                after = project_point(r2, q, w, h)
                moved = map_pixel(op, before, w, h)
                assert abs(after[0] - moved.x) < 1e-6
                assert abs(after[1] - moved.y) < 1e-6

    def test_flip(self):
        rng = np.random.default_rng(43)
        w = h = 200
        for _ in range(50):
            r = random_rotation(rng)
            theta = rng.uniform(-math.pi, math.pi)
            r2 = flip_image_label(r, theta)
            op = AugmentOp("flip", theta)
            for _ in range(3):
                q = rng.normal(size=3)
                # the mirrored image shows the x-mirrored model point
                before = project_point(r, q, w, h)
                after = project_point(r2, _FLIP_X @ q, w, h)
                moved = map_pixel(op, before, w, h)
                assert abs(after[0] - moved.x) < 1e-6
                assert abs(after[1] - moved.y) < 1e-6


class TestAugmentOp:
    def test_validation(self):
        with pytest.raises(ValueError):
            AugmentOp("shear", 0.1)
        with pytest.raises(ValueError):
            AugmentOp("rotate", math.inf)

    def test_dict_round_trip(self):
        op = AugmentOp("flip", 1.234)
        back = AugmentOp.from_dict(op.as_dict())
        assert back.kind == op.kind
        assert abs(back.angle - op.angle) < 1e-15

    @pytest.mark.parametrize("flags, mult", [
        (["--multiplier", "2", "--seed", "31"], 2),
        (["--mode", "flip", "--angle-deg", "83"], 1),
    ])
    def test_provenance_replays_the_augmentation(self, tmp_path, flags, mult):
        # each output record's last provenance entry, read back as an
        # AugmentOp, maps the input rotation to the output rotation
        src, out = tmp_path / "spiral.jsonl", tmp_path / "out.jsonl"
        assert main(["spiral", "--count", "300", "--output", str(src)]) == 0
        assert main(["augment", *flags, "--input", str(src), "--output", str(out)]) == 0
        inputs, outputs = read_labels(src), read_labels(out)
        assert len(outputs) == mult * len(inputs)
        for i, rec in enumerate(outputs):
            entry = rec.provenance[-1]
            op = AugmentOp.from_dict(entry)
            assert op.kind == entry["kind"]
            replayed = apply_augment(inputs[i // mult].rotation, op)
            assert np.abs(replayed - rec.rotation).max() <= 1e-15

    def test_apply_dispatch(self):
        r = compose_pyr((0.1, 0.2, 0.3))
        np.testing.assert_array_equal(
            apply_augment(r, AugmentOp("rotate", 0.5)), rotate_image_label(r, 0.5)
        )
        np.testing.assert_array_equal(
            apply_augment(r, AugmentOp("flip", 0.5)), flip_image_label(r, 0.5)
        )


def test_label_rotation_matches_projected_point_cloud():
    # Rotating the rigid model in 3D, projecting, spinning the projections
    # in 2D, and re-fitting the pose reproduces the closed-form label: the
    # projections of the transformed label match the transformed
    # projections for every model point.
    rng = np.random.default_rng(47)
    model = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.3, -0.2, 0.9])]
    r = compose_pyr((0.2, 0.3, 0.1))
    phi = 0.4
    r2 = rotate_image_label(r, phi)
    op = AugmentOp("rotate", phi)
    w = h = 100
    for q in model:
        expected = map_pixel(op, project_point(r, q, w, h), w, h)
        got = project_point(r2, q, w, h)
        assert abs(got[0] - expected.x) < 1e-12
        assert abs(got[1] - expected.y) < 1e-12
