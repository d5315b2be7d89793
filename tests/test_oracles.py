"""rotkit against oracles it did not write.

The parity tests elsewhere compare rotkit's batched kernels with its own
scalar functions, so an error shared by both routes (a wrong row of the
Euler-convention table, say) would pass there.  Here the Euler table, and
the rule that generates its rows for all six axis sequences, is checked
against scipy's Rotation, and every CLI command against the numpy
references and output checks of the benchmark (perfbench/), which this
module imports and does not change.
"""

import math
import sys
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rotkit.labels  # noqa: F401 - its views are fixed before a test adds a table row
from rotkit import compose_pyr, compose_rpy, extract_pyr, extract_rpy
from rotkit._conventions import _Convention, _convention
from rotkit.cli import main
from rotkit.core import _CONVENTIONS, _compose_rows
from rotkit.euler import GIMBAL_EPS, _euler_rows, _extract

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Per convention: the public composition and extraction, and the scipy
# sequence whose right-handed intrinsic rotations, with every angle
# negated, equal rotkit's left-handed ones.
ORACLE = {
    "pyr": (compose_pyr, lambda r: extract_pyr(r).primary, "XYZ"),
    "rpy": (compose_rpy, lambda r: extract_rpy(r).value, "ZXY"),
}
# Worst deviations from scipy measured on these samples: 6.7e-16 per
# matrix entry, 8.9e-15 rad per angle.
COMPOSE_TOL = 4e-15
EXTRACT_TOL = 1e-12
# The six Tait-Bryan axis sequences, each with both lock entries.
SEQUENCES = ["".join(axes) for axes in permutations("xyz")]
GENERATED = [(axes, entry) for axes in SEQUENCES for entry in ("ji", "kj")]


def _wrapped_diff(a, b):
    # angle differences folded into [-pi, pi), so pi and -pi agree
    return (np.asarray(a) - np.asarray(b) + np.pi) % (2 * np.pi) - np.pi


def _angle_rows(rng, n):
    # uniform triples plus middle angles within 1e-3 of +/-pi/2
    angles = rng.uniform(-np.pi, np.pi, (n, 3))
    band = angles[: n // 4]
    band[:, 1] = rng.choice([-1.0, 1.0], len(band)) * np.pi / 2 + rng.uniform(-1e-3, 1e-3, len(band))
    return angles


@pytest.fixture(scope="module")
def scipy_rotation():
    return pytest.importorskip("scipy.spatial.transform").Rotation


@pytest.fixture
def generated(monkeypatch):
    """Puts _convention(axes, entry) into the table as "generated" for one
    test, so that core's and euler's kernels read it; returns its name."""
    def add(axes, entry):
        monkeypatch.setitem(_CONVENTIONS, "generated", _convention(axes, entry))
        return "generated"
    return add


class TestEulerTableAgainstScipy:
    def test_every_convention_has_an_oracle(self):
        assert set(_CONVENTIONS) == set(ORACLE)

    @pytest.mark.parametrize("convention", sorted(ORACLE))
    def test_composition(self, scipy_rotation, convention):
        compose, _, seq = ORACLE[convention]
        angles = _angle_rows(np.random.default_rng(5), 4000)
        want = scipy_rotation.from_euler(seq, -angles).as_matrix()
        scalar = np.array([compose(e) for e in angles])
        assert np.abs(scalar - want).max() <= COMPOSE_TOL
        assert np.abs(_compose_rows(angles, convention) - want).max() <= COMPOSE_TOL

    @pytest.mark.parametrize("convention", sorted(ORACLE))
    def test_extraction_away_from_the_lock(self, scipy_rotation, convention):
        _, extract, seq = ORACLE[convention]
        rotations = scipy_rotation.random(5000, random_state=7)
        want = -rotations.as_euler(seq)
        keep = np.abs(np.cos(want[:, 1])) > 1e-3
        stack = rotations.as_matrix()[keep]
        want = want[keep]
        assert len(stack) > 4900
        scalar = np.array([extract(r) for r in stack])
        assert np.abs(_wrapped_diff(scalar, want)).max() <= EXTRACT_TOL
        batched, locked = _euler_rows(stack, convention)
        assert not locked.any()
        assert np.abs(_wrapped_diff(batched, want)).max() <= EXTRACT_TOL

    def test_rows_in_use_are_generated_as_typed_here(self):
        # the two rows in use, typed out once here: the rule gives them field for field
        assert _CONVENTIONS == {
            "pyr": _Convention("xyz", 1.0, 2, (5, 8), (1, 0), (3, 4), (1.0, -1.0), (1.0, 1.0)),
            "rpy": _Convention("zxy", 1.0, 7, (1, 4), (6, 8), (3, 0), (-1.0, 1.0), (1.0, 1.0)),
        }

    @pytest.mark.parametrize("axes", SEQUENCES)
    def test_generated_composition(self, scipy_rotation, generated, axes):
        angles = _angle_rows(np.random.default_rng(5), 4000)
        want = scipy_rotation.from_euler(axes.upper(), -angles).as_matrix()
        assert np.abs(_compose_rows(angles, generated(axes, "ji")) - want).max() <= COMPOSE_TOL

    @pytest.mark.parametrize("axes, entry", GENERATED)
    def test_generated_extraction_away_from_the_lock(self, scipy_rotation, generated, axes, entry):
        name = generated(axes, entry)
        rotations = scipy_rotation.random(2000, random_state=7)
        want = -rotations.as_euler(axes.upper())
        keep = np.abs(np.cos(want[:, 1])) > 1e-3
        stack = rotations.as_matrix()[keep]
        assert len(stack) > 1950
        angles, locked = _euler_rows(stack, name)
        assert not locked.any()
        assert np.abs(_wrapped_diff(angles, want[keep])).max() <= EXTRACT_TOL
        # recomposed: each outer angle errs by about an ulp over |cos(middle)|
        back = scipy_rotation.from_matrix(_compose_rows(angles, name))
        assert (back.inv() * rotations[keep]).magnitude().max() <= EXTRACT_TOL

    @pytest.mark.parametrize("axes, entry", GENERATED)
    def test_generated_extraction_at_the_lock(self, scipy_rotation, generated, axes, entry):
        # middle angles within 1e-3 of +/-pi/2, a quarter of them exactly there
        name = generated(axes, entry)
        rng = np.random.default_rng(11)
        angles = rng.uniform(-np.pi, np.pi, (4000, 3))
        angles[:, 1] = rng.choice([-1.0, 1.0], 4000) * np.pi / 2
        angles[1000:, 1] += rng.uniform(-1e-3, 1e-3, 3000)
        stack = scipy_rotation.from_euler(axes.upper(), -angles).as_matrix()
        rows = [_extract(m, name, GIMBAL_EPS) for m in stack.reshape(-1, 9).tolist()]
        locks = np.array([lock for _, lock in rows])
        got = np.array([e for e, lock in rows if lock])
        locked = locks != 0
        assert locked.sum() > 1000
        back = scipy_rotation.from_euler(axes.upper(), -got)
        assert (back.inv() * scipy_rotation.from_matrix(stack[locked])).magnitude().max() <= GIMBAL_EPS
        assert np.abs(got[:, [0, 2]]).max() <= math.pi / 2
        assert (got[:, 1] == locks[locked] * math.pi / 2).all()
        assert (locks[locked] == np.sign(angles[locked, 1])).all()


@pytest.fixture(scope="module")
def bench():
    """perfbench's generators, references and output checks, imported read-only."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checks
        import gen
        import register_worker
    finally:
        sys.path.remove(str(PERFBENCH))
    return SimpleNamespace(checks=checks, gen=gen, register_worker=register_worker)


def _assert_ok(results):
    failed = {name: detail for name, (ok, detail, *_) in results.items() if not ok}
    assert not failed, failed


def test_build_commands_pass_the_benchmark_checks(bench, tmp_path):
    # spiral -> augment x2 -> convert euler_pyr -> draw, as the build workload
    count, multiplier, budget_deg = 600, 2, 20.0
    spiral, aug = tmp_path / "spiral.jsonl", tmp_path / "augmented.jsonl"
    conv, svg = tmp_path / "converted.jsonl", tmp_path / "svg"
    for argv in (
        ["spiral", "--count", str(count), "--output", str(spiral)],
        ["augment", "--input", str(spiral), "--output", str(aug), "--mode", "random",
         "--multiplier", str(multiplier), "--budget-deg", str(budget_deg), "--seed", "3"],
        ["convert", "--input", str(aug), "--output", str(conv), "--target", "euler_pyr"],
        ["draw", "--input", str(conv), "--output", str(svg)],
    ):
        assert main(argv) == 0, argv
    checks = bench.checks
    _assert_ok({
        "spiral": checks.spiral(spiral, count),
        "augment": checks.augment(spiral, aug, multiplier, budget_deg),
        "convert": checks.convert(aug, conv),
        "draw": checks.draw(conv, svg),
    })


def test_analyze_commands_pass_the_benchmark_checks(bench, tmp_path, capsys):
    # eval, stats and pca on annotated records with a Gimbal band, plus the
    # Horn/Panoptic registration worker, as the analyze workload
    truth_path, pred_path = tmp_path / "truth.jsonl", tmp_path / "pred.jsonl"
    ids, truth, pred_ids, pred = bench.gen.analyze_corpus(3, 2000, truth_path, pred_path)
    eval_csv, stats_csv, pca_csv = tmp_path / "eval.csv", tmp_path / "stats.csv", tmp_path / "pca.csv"
    frames, reg_out = tmp_path / "frames.npz", tmp_path / "register_out.npz"
    bench.gen.register_frames(3, 40, frames)

    capsys.readouterr()
    assert main(["eval", "--input", str(pred_path), str(truth_path), "--output", str(eval_csv)]) == 0
    eval_stdout = capsys.readouterr().out
    assert main(["stats", "--input", str(truth_path), "--output", str(stats_csv)]) == 0
    assert main(["pca", "--input", str(truth_path), "--output", str(pca_csv)]) == 0
    assert bench.register_worker.main([str(frames), str(reg_out)]) == 0
    checks = bench.checks
    _assert_ok({
        "eval": checks.evaluate(eval_csv, eval_stdout, ids, truth, pred_ids, pred),
        "stats": checks.stats(stats_csv, truth),
        "pca": checks.pca(pca_csv, ids, truth),
        "register": checks.register(frames, reg_out),
    })
