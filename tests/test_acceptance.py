"""Acceptance suite: one test per criterion, each printing a pass line
with its runtime (visible with pytest -s; pytest -v shows one PASSED /
FAILED line per criterion either way)."""

import math
import time

import numpy as np

from helpers import rotation_angle
from rotkit import (
    PoseRecord,
    canonical_pyr,
    compose_pyr,
    compose_rpy,
    corollary_case,
    densify_rolls,
    extract_pyr,
    extract_rpy,
    flip_image_label,
    geodesic_distance,
    horn_rotation,
    is_rotation,
    mean_geodesic_error,
    pca_project,
    pose_stream,
    pyr_to_rpy,
    random_rotation,
    read_labels,
    rot_z_left,
    rotate_image_label,
    write_labels,
)
from rotkit.cli import main as cli_main

GIMBAL_LABEL_DEG = (-16.090911401458296, -89.9985818251308, -6.854511900533989)
GIMBAL_SUM_DEG = -22.94542388660367
HAAR_MEAN_ANGLE = math.pi / 2 + 2 / math.pi


def _report(num: int, desc: str, seconds: float, limit: float | None = None) -> None:
    budget = f" (limit {limit:g}s)" if limit is not None else ""
    print(f"ACCEPTANCE {num:02d} PASS in {seconds:.4f}s{budget}: {desc}")


def test_01_gimbal_lock_example():
    angles = tuple(math.radians(v) for v in GIMBAL_LABEL_DEG)

    def run():
        return extract_pyr(compose_pyr(angles))

    run()  # warm up trig/numpy dispatch
    best = math.inf
    for _ in range(200):
        t0 = time.perf_counter()
        sol = run()
        best = min(best, time.perf_counter() - t0)

    assert sol.kind == "gimbal_down"
    got_sum_deg = math.degrees(sol.primary.pitch + sol.primary.roll)
    assert abs(got_sum_deg - GIMBAL_SUM_DEG) < 1e-3
    assert abs(math.degrees(sol.gimbal_sum) - GIMBAL_SUM_DEG) < 1e-3
    assert best < 1e-3
    _report(1, f"gimbal_down with pitch+roll = {got_sum_deg:.6f} deg", best, 1e-3)


def test_02_round_trip_extraction():
    n = 100_000
    rng = pose_stream(20_240_601)

    t0 = time.perf_counter()
    rotations = [random_rotation(rng) for _ in range(n)]
    worst = 0.0
    for r in rotations:
        sol = extract_pyr(r)
        assert sol.kind == "regular"
        worst = max(worst, rotation_angle(compose_pyr(sol.primary), r))
        worst = max(worst, rotation_angle(compose_pyr(sol.secondary), r))
        rsol = extract_rpy(r)
        assert rsol.kind == "regular"
        worst = max(worst, rotation_angle(compose_rpy(rsol.value), r))
    elapsed = time.perf_counter() - t0

    assert worst < 1e-9
    assert elapsed < 10.0
    _report(2, f"max round-trip geodesic {worst:.3e} rad over {n} rotations", elapsed, 10.0)


def test_03_conversion_fidelity():
    n = 10_000
    rng = pose_stream(20_240_602)
    triples = [tuple(rng.uniform(-math.pi, math.pi, size=3)) for _ in range(n)]

    t0 = time.perf_counter()
    worst = 0.0
    for e in triples:
        diff = compose_rpy(pyr_to_rpy(e)) - compose_pyr(e)
        worst = max(worst, float(np.linalg.norm(diff)))
    elapsed = time.perf_counter() - t0

    assert worst < 1e-9
    assert elapsed < 5.0
    _report(3, f"max conversion Frobenius error {worst:.3e} over {n} triples", elapsed, 5.0)


def test_04_drawing_equivalence():
    from rotkit import project_axes, reference_draw_axis

    n = 100_000
    rng = pose_stream(20_240_603)
    triples = rng.uniform(-math.pi, math.pi, size=(n, 3))

    t0 = time.perf_counter()
    worst = 0.0
    for e in triples:
        a = project_axes(compose_pyr(e))
        b = reference_draw_axis(e)
        worst = max(
            worst,
            float(np.abs(a.x_axis - b.x_axis).max()),
            float(np.abs(a.y_axis - b.y_axis).max()),
            float(np.abs(a.z_axis - b.z_axis).max()),
        )
    elapsed = time.perf_counter() - t0

    assert worst < 1e-12
    assert elapsed < 10.0
    _report(4, f"max drawing-route disagreement {worst:.3e} over {n} poses", elapsed, 10.0)


def test_05_augmentation_algebra():
    n = 10_000
    rng = pose_stream(20_240_604)
    rotations = [random_rotation(rng) for _ in range(n)]
    thetas = rng.uniform(-math.pi, math.pi, size=n)
    phis = rng.uniform(-math.pi, math.pi, size=(n, 2))
    cases = (
        ("horizontal", lambda r: flip_image_label(r, math.pi / 2)),
        ("vertical", lambda r: flip_image_label(r, 0.0)),
        ("both_axes", lambda r: flip_image_label(flip_image_label(r, 0.0), math.pi / 2)),
        ("diagonal", lambda r: flip_image_label(r, math.pi / 4)),
        ("rot45", lambda r: rotate_image_label(r, math.pi / 4)),
    )

    t0 = time.perf_counter()
    for i, r in enumerate(rotations):
        theta = float(thetas[i])
        p1, p2 = (float(v) for v in phis[i])
        flipped = flip_image_label(r, theta)
        assert np.abs(flip_image_label(flipped, theta) - r).max() < 1e-13
        assert is_rotation(flipped, 1e-12)
        additive = rotate_image_label(rotate_image_label(r, p1), p2)
        assert np.abs(additive - rotate_image_label(r, p1 + p2)).max() < 1e-13
        for name, general in cases:
            assert np.abs(corollary_case(r, name) - general(r)).max() < 1e-13
        # mirror law on the canonical Euler triple
        e = canonical_pyr(r)
        mirrored = canonical_pyr(flip_image_label(r, math.pi / 2))
        for got, want in zip(mirrored, (e.pitch, -e.yaw, -e.roll)):
            d = (got - want + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(d) < 1e-10
    elapsed = time.perf_counter() - t0

    assert elapsed < 10.0
    _report(5, f"involution, additivity, 5 special cases, mirror law over {n} rotations", elapsed, 10.0)


def test_06_coverage_reproduction(tmp_path):
    t0 = time.perf_counter()
    spiral_path = tmp_path / "spiral.jsonl"
    assert cli_main(["spiral", "--count", "1440", "--output", str(spiral_path)]) == 0
    spiral_records = read_labels(spiral_path)
    assert len(spiral_records) == 1440
    spiral = [rec.rotation for rec in spiral_records]
    for r in spiral:
        assert abs(math.degrees(canonical_pyr(r).roll)) < 1e-8

    budget_deg = 20.0
    dense = densify_rolls(spiral, math.radians(budget_deg), seed=20_240_605, multiplier=2)
    assert len(dense) == 2880
    dense_path = tmp_path / "dense.jsonl"
    write_labels(
        [PoseRecord(id=f"aug_{i:06d}", rotation=r) for i, r in enumerate(dense)], dense_path
    )
    stats_csv = tmp_path / "stats.csv"
    assert cli_main(["stats", "--input", str(dense_path), "--output", str(stats_csv)]) == 0
    rows = dict(line.split(",", 1) for line in stats_csv.read_text().splitlines()[1:])
    roll_min, roll_max = (float(v) for v in rows["roll"].split(","))
    assert roll_min <= -(budget_deg - 1.0)
    assert roll_max >= budget_deg - 1.0

    rng = pose_stream(20_240_606)
    randoms = [random_rotation(rng) for _ in range(1440)]
    combined = spiral + dense + randoms
    assert len(combined) == 5760
    combined_path = tmp_path / "combined.jsonl"
    write_labels(
        [PoseRecord(id=f"c_{i:06d}", rotation=r) for i, r in enumerate(combined)],
        combined_path,
    )
    pca_csv = tmp_path / "pca.csv"
    assert cli_main(["pca", "--input", str(combined_path), "--output", str(pca_csv)]) == 0
    assert len(pca_csv.read_text().splitlines()) == 5761

    vectors = np.array(combined).reshape(-1, 9)
    result = pca_project(vectors)
    centered = vectors - vectors.mean(axis=0)
    cov = centered.T @ centered / (len(vectors) - 1)
    assert abs(result.eigenvalues.sum() - np.trace(cov)) < 1e-10
    elapsed = time.perf_counter() - t0

    assert elapsed < 30.0
    _report(
        6,
        f"spiral rolls exactly 0, densified roll range [{roll_min:.2f}, {roll_max:.2f}] deg, "
        f"PCA trace residual {abs(result.eigenvalues.sum() - np.trace(cov)):.2e}",
        elapsed,
        30.0,
    )


def test_07_geodesic_evaluation(tmp_path):
    t0 = time.perf_counter()
    rng = pose_stream(20_240_607)
    truth = [PoseRecord(id=f"t{i:04d}", rotation=random_rotation(rng)) for i in range(300)]
    offset = rot_z_left(0.1)
    predictions = [PoseRecord(id=r.id, rotation=offset @ r.rotation) for r in truth]
    truth_path, pred_path = tmp_path / "truth.jsonl", tmp_path / "pred.jsonl"
    write_labels(truth, truth_path)
    write_labels(predictions, pred_path)
    report = mean_geodesic_error(read_labels(pred_path), read_labels(truth_path))
    elapsed = time.perf_counter() - t0

    assert abs(report.mean - 0.1) < 1e-12
    _report(7, f"constant-offset mean geodesic error {report.mean!r} rad", elapsed)


def test_08_horn_solver():
    t0 = time.perf_counter()
    rng = pose_stream(20_240_608)
    worst_clean = 0.0
    for _ in range(1000):
        true = random_rotation(rng)
        n = int(rng.integers(4, 12))
        src = rng.normal(size=(n, 3))
        dst = src @ true.T + rng.normal(size=3)
        worst_clean = max(worst_clean, rotation_angle(horn_rotation(src, dst), true))
    worst_noisy = 0.0
    for _ in range(1000):
        true = random_rotation(rng)
        n = int(rng.integers(4, 12))
        src = rng.normal(size=(n, 3))
        dst = src @ true.T + rng.normal(size=3) + 1e-3 * rng.normal(size=(n, 3))
        worst_noisy = max(worst_noisy, rotation_angle(horn_rotation(src, dst), true))
    elapsed = time.perf_counter() - t0

    assert worst_clean < 1e-9
    assert worst_noisy < 1e-2
    _report(
        8,
        f"rigid recovery: {worst_clean:.2e} rad noise-free, {worst_noisy:.2e} rad at sigma=1e-3",
        elapsed,
    )


def test_09_haar_sampler_mean_angle():
    n = 100_000
    rng = pose_stream(20_240_609)
    eye = np.eye(3)

    t0 = time.perf_counter()
    total = 0.0
    for _ in range(n):
        total += geodesic_distance(random_rotation(rng), eye)
    elapsed = time.perf_counter() - t0

    mean = total / n
    assert abs(mean - HAAR_MEAN_ANGLE) < math.radians(0.5)
    _report(
        9,
        f"mean angle {math.degrees(mean):.4f} deg vs analytic "
        f"{math.degrees(HAAR_MEAN_ANGLE):.4f} deg over {n} samples",
        elapsed,
    )


def test_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    rng = pose_stream(20_240_610)
    base = [PoseRecord(id=f"b{i:03d}", rotation=random_rotation(rng)) for i in range(40)]
    base_path = tmp_path / "base.jsonl"
    write_labels(base, base_path)
    second = [PoseRecord(id=r.id, rotation=rot_z_left(0.05) @ r.rotation) for r in base]
    second_path = tmp_path / "second.jsonl"
    write_labels(second, second_path)

    def run_twice(name, build_args, outputs):
        for tag in ("x", "y"):
            code = cli_main(build_args(tag))
            assert code == 0, f"{name} run {tag} failed"
        got = [outputs(tag) for tag in ("x", "y")]
        for a, b in zip(got[0], got[1]):
            assert a.read_bytes() == b.read_bytes(), f"{name}: {a} differs from {b}"

    run_twice(
        "spiral",
        lambda t: ["spiral", "--count", "60", "--output", str(tmp_path / f"spiral_{t}.jsonl")],
        lambda t: [tmp_path / f"spiral_{t}.jsonl"],
    )
    run_twice(
        "augment",
        lambda t: ["augment", "--seed", "3", "--budget-deg", "15",
                   "--input", str(base_path), "--output", str(tmp_path / f"aug_{t}.jsonl")],
        lambda t: [tmp_path / f"aug_{t}.jsonl"],
    )
    run_twice(
        "convert",
        lambda t: ["convert", "--target", "euler_pyr",
                   "--input", str(base_path), "--output", str(tmp_path / f"conv_{t}.jsonl")],
        lambda t: [tmp_path / f"conv_{t}.jsonl"],
    )
    run_twice(
        "eval",
        lambda t: ["eval", "--input", str(second_path), str(base_path),
                   "--output", str(tmp_path / f"eval_{t}.csv")],
        lambda t: [tmp_path / f"eval_{t}.csv"],
    )
    run_twice(
        "pca",
        lambda t: ["pca", "--input", str(base_path), "--output", str(tmp_path / f"pca_{t}.csv")],
        lambda t: [tmp_path / f"pca_{t}.csv"],
    )
    run_twice(
        "stats",
        lambda t: ["stats", "--input", str(base_path), "--output", str(tmp_path / f"stats_{t}.csv")],
        lambda t: [tmp_path / f"stats_{t}.csv"],
    )
    run_twice(
        "draw",
        lambda t: ["draw", "--input", str(base_path), "--output", str(tmp_path / f"svg_{t}")],
        lambda t: sorted((tmp_path / f"svg_{t}").iterdir()),
    )
    elapsed = time.perf_counter() - t0
    _report(10, "all 7 commands byte-identical across reruns", elapsed)
