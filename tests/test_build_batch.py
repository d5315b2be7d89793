"""The batched build path (spiral, augment, convert, draw) against the
per-record library functions, byte for byte.

Bytes, not values: `np.array_equal` treats -0.0 as 0.0, while the label
files write "-0.0", so every comparison here goes through `.tobytes()` or
the written files.
"""

import itertools
import json
import math
import os
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotkit import (
    GIMBAL_EPS,
    ORTHO_TOL,
    AugmentOp,
    DrawSpec,
    PoseRecord,
    SpiralSpec,
    apply_augment,
    canonical_pyr,
    compose_pyr,
    compose_rpy,
    densify_rolls,
    euler_range_stats,
    extract_pyr,
    extract_rpy,
    flip_image_label,
    is_rotation,
    pose_stream,
    project_axes,
    random_augment,
    random_rotation,
    read_labels,
    render_svg,
    rotate_image_label,
    segments,
)
from rotkit import core
from rotkit.augment import _image_rows, _random_ops
from rotkit.cli import main
from rotkit.core import _compose_rows
from rotkit.coverage import _spiral_rows, _triangle_yaw
from rotkit.drawing import _segments_rows
from rotkit.euler import _euler_rows
from rotkit.labels import CHUNK_RECORDS, GIMBAL_CONSISTENCY_TOL, record_to_dict

BAND = 10 * GIMBAL_EPS
# A scale that leaves a rotation inside the file tolerance (1e-6) but
# outside ORTHO_TOL (1e-9): the reader replaces such a row by its nearest
# rotation.
LOOSE_SCALE = 1.0 + 1e-7


def _signed_permutations():
    # The 24 axis-aligned rotations: exact zeros and ones, det +1.
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            for row, (col, sign) in enumerate(zip(perm, signs)):
                m[row, col] = sign
            if np.linalg.det(m) > 0:
                out.append(m)
    return out


AXIS_ALIGNED = _signed_permutations()
# the same rotations with every zero stored as -0.0
AXIS_ALIGNED_NEG0 = [np.where(m == 0.0, -0.0, m) for m in AXIS_ALIGNED]
angles = st.floats(-math.pi, math.pi, allow_nan=False)
offsets = st.floats(-BAND, BAND, allow_nan=False)
haar = st.integers(0, 2**32).map(lambda seed: random_rotation(pose_stream(seed)))
pyr_band = st.tuples(angles, st.sampled_from((1.0, -1.0)), offsets, angles).map(
    lambda t: compose_pyr((t[0], t[1] * math.pi / 2 + t[2], t[3]))
)
rpy_band = st.tuples(angles, st.sampled_from((1.0, -1.0)), offsets, angles).map(
    lambda t: compose_rpy((t[0], t[1] * math.pi / 2 + t[2], t[3]))
)
axis_aligned = st.sampled_from(AXIS_ALIGNED + AXIS_ALIGNED_NEG0)
stacks = st.lists(st.one_of(haar, pyr_band, rpy_band, axis_aligned), min_size=1, max_size=24).map(
    np.array
)
masks = st.lists(st.booleans(), min_size=24, max_size=24)
ANGLE_ROWS = st.lists(
    st.tuples(
        st.one_of(angles, st.sampled_from((0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi))),
        st.one_of(angles, offsets.map(lambda d: math.pi / 2 + d)),
        angles,
    ),
    min_size=1,
    max_size=24,
)
kernel_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _same_rows(stack, expected):
    assert len(stack) == len(expected)
    for got, want in zip(stack, expected):
        assert np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()


def _same_ops(rotate, angles, ops):
    # op columns against AugmentOps: the kinds, the angles, and the degrees
    # that AugmentOp.as_dict writes to provenance, byte for byte
    assert rotate.dtype == bool
    assert rotate.tolist() == [op.kind == "rotate" for op in ops]
    _same_rows(angles, [op.angle for op in ops])
    _same_rows(np.degrees(angles), [op.as_dict()["angle_deg"] for op in ops])


def _scalar_random(stack, budget, seed, start, multiplier):
    out, ops = [], []
    for i, r in enumerate(stack):
        rng = pose_stream(seed, start + i)
        for _ in range(multiplier):
            m, op = random_augment(r, budget, rng)
            out.append(m)
            ops.append(op)
    return out, ops


class TestKernels:
    @kernel_settings
    @given(ANGLE_ROWS)
    def test_compose(self, rows):
        a = np.array(rows)
        _same_rows(_compose_rows(a, "pyr"), [compose_pyr(e) for e in rows])
        _same_rows(_compose_rows(a, "rpy"), [compose_rpy(e) for e in rows])

    @kernel_settings
    @given(stacks, st.lists(angles, min_size=24, max_size=24), masks)
    def test_rotate_and_flip(self, stack, phis, mask):
        n = len(stack)
        phis, mask = np.array(phis[:n]), np.array(mask[:n])
        rotations = _image_rows(stack, np.ones(n, dtype=bool), phis)
        _same_rows(rotations, [rotate_image_label(r, p) for r, p in zip(stack, phis)])
        flips = _image_rows(stack, np.zeros(n, dtype=bool), phis)
        _same_rows(flips, [flip_image_label(r, p) for r, p in zip(stack, phis)])
        ops = [AugmentOp("rotate" if m else "flip", p) for m, p in zip(mask.tolist(), phis)]
        mixed = _image_rows(stack, mask, phis)
        _same_rows(mixed, [apply_augment(r, op) for r, op in zip(stack, ops)])

    @kernel_settings
    @given(
        stacks,
        st.sampled_from((0.0, math.radians(20.0), math.pi / 2)),
        st.integers(-(2**63), 2**64 - 1),
        st.integers(0, 10**6),
        st.integers(1, 3),
    )
    def test_random_augment(self, stack, budget, seed, start, multiplier):
        rotate, op_angles = _random_ops(budget, seed, start, len(stack), multiplier)
        got = _image_rows(np.repeat(stack, multiplier, axis=0), rotate, op_angles)
        want, want_ops = _scalar_random(stack, budget, seed, start, multiplier)
        _same_rows(got, want)
        _same_ops(rotate, op_angles, want_ops)

    def test_random_augment_error_order(self):
        # densify_rolls checks as a loop of random_augment would: a record's
        # rotation before the budget, and the first record first
        stack = np.array(AXIS_ALIGNED[:4])
        stack[2] *= 1.0 + 1e-7
        with pytest.raises(ValueError, match="budget"):
            densify_rolls(stack, 2.0, 0, 1)
        with pytest.raises(ValueError, match="not a rotation"):
            densify_rolls(stack, 0.5, 0, 1)
        with pytest.raises(ValueError, match="not a rotation"):
            densify_rolls(stack[2:], 2.0, 0, 1)

    @kernel_settings
    @given(stacks, st.sampled_from(("rotate", "flip")), angles)
    def test_fixed_augment(self, stack, kind, angle):
        op = AugmentOp(kind, angle)
        n = 2 * len(stack)
        rotate, op_angles = np.full(n, kind == "rotate"), np.full(n, angle)
        got = _image_rows(np.repeat(stack, 2, axis=0), rotate, op_angles)
        _same_rows(got, [apply_augment(r, op) for r in stack for _ in range(2)])
        _same_ops(rotate, op_angles, [op] * n)

    @kernel_settings
    @given(stacks)
    def test_extraction(self, stack):
        pyr, pyr_locked = _euler_rows(stack, "pyr")
        _same_rows(pyr, [canonical_pyr(r) for r in stack])
        assert pyr_locked.tolist() == [extract_pyr(r).kind != "regular" for r in stack]
        rpy, rpy_locked = _euler_rows(stack, "rpy")
        _same_rows(rpy, [extract_rpy(r).value for r in stack])
        assert rpy_locked.tolist() == [extract_rpy(r).kind != "regular" for r in stack]

    @kernel_settings
    @given(stacks)
    def test_degrees_match_math(self, stack):
        for rows in (_euler_rows(stack, "pyr")[0], _euler_rows(stack, "rpy")[0]):
            want = [[math.degrees(v) for v in row] for row in rows.tolist()]
            _same_rows(np.degrees(rows), want)

    @kernel_settings
    @given(stacks, st.floats(1.0, 500.0), st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
    def test_segments(self, stack, size, cx, cy):
        spec = DrawSpec(center=(cx, cy), size=size)
        got = _segments_rows(stack, spec)
        assert got == [segments(project_axes(r), spec) for r in stack]
        for segs, r in zip(got, stack):
            want = segments(project_axes(r), spec)
            assert np.array(segs).tobytes() == np.array(want).tobytes()

    def test_locked_rows_and_signed_zeros(self):
        # both Gimbal branches, and products whose zeros carry a sign
        locked = [compose_pyr((0.3, s * math.pi / 2, -0.2)) for s in (1.0, -1.0)]
        stack = np.array(locked + AXIS_ALIGNED)
        angles, mask = _euler_rows(stack, "pyr")
        assert mask.tolist() == [extract_pyr(r).kind != "regular" for r in stack]
        assert mask[:2].all() and 0 < mask[2:].sum() < len(AXIS_ALIGNED)
        _same_rows(angles, [canonical_pyr(r) for r in stack])
        neg0 = np.array(AXIS_ALIGNED_NEG0)
        for rows, want in (
            (_euler_rows(neg0, "pyr")[0], [canonical_pyr(r) for r in neg0]),
            (_euler_rows(neg0, "rpy")[0], [extract_rpy(r).value for r in neg0]),
        ):
            assert np.signbit(rows[rows == 0.0]).any()
            _same_rows(rows, want)


haar_stacks = st.lists(haar, min_size=1, max_size=24).map(np.array)
pyr_band_stacks = st.lists(pyr_band, min_size=1, max_size=24).map(np.array)
rpy_band_stacks = st.lists(rpy_band, min_size=1, max_size=24).map(np.array)
band_or_haar = st.lists(st.one_of(haar, pyr_band, rpy_band), min_size=1, max_size=24).map(np.array)
angle_lists = st.lists(angles, min_size=24, max_size=24)


def _round_trip(stack, convention):
    """Max entry deviation of compose(extract(row)) from each row, and the lock mask."""
    angles, locked = _euler_rows(stack, convention)
    return np.abs(_compose_rows(angles, convention) - stack).max(axis=(1, 2)), locked


class TestKernelProperties:
    """Algebraic properties of the batched kernels over Haar samples and
    yaw (pitch for rpy) within +/-10 GIMBAL_EPS of +/-90 deg.  The
    tolerances were fixed before these tests first ran, from the largest
    deviations seen in a separate sampling run, with headroom."""

    @kernel_settings
    @given(band_or_haar, angle_lists)
    def test_flip_is_an_involution(self, stack, thetas):
        flip, thetas = np.zeros(len(stack), dtype=bool), np.array(thetas[: len(stack)])
        twice = _image_rows(_image_rows(stack, flip, thetas), flip, thetas)
        assert np.abs(twice - stack).max() <= 1e-14

    @kernel_settings
    @given(band_or_haar, angle_lists, angle_lists)
    def test_rotation_is_additive(self, stack, phis, psis):
        rotate = np.ones(len(stack), dtype=bool)
        phis, psis = np.array(phis[: len(stack)]), np.array(psis[: len(stack)])
        twice = _image_rows(_image_rows(stack, rotate, phis), rotate, psis)
        once = _image_rows(stack, rotate, phis + psis)
        assert np.abs(twice - once).max() <= 1e-14

    @kernel_settings
    @given(
        band_or_haar,
        st.sampled_from((0.0, math.radians(20.0), math.pi / 2)),
        st.integers(0, 2**64 - 1),
        st.integers(1, 3),
        st.one_of(st.none(), st.builds(AugmentOp, st.sampled_from(("rotate", "flip")), angles)),
    )
    def test_augment_stays_in_so3(self, stack, budget, seed, multiplier, op):
        n = multiplier * len(stack)
        if op is None:
            rotate, op_angles = _random_ops(budget, seed, 0, len(stack), multiplier)
        else:
            rotate, op_angles = np.full(n, op.kind == "rotate"), np.full(n, op.angle)
        out = _image_rows(np.repeat(stack, multiplier, axis=0), rotate, op_angles)
        assert len(out) == n
        assert all(is_rotation(r, ORTHO_TOL) for r in out)

    @kernel_settings
    @given(haar_stacks)
    def test_euler_round_trip_on_haar_samples(self, stack):
        for convention in ("pyr", "rpy"):
            dev, locked = _round_trip(stack, convention)
            assert (dev[~locked] <= 1e-13).all()
            assert (dev[locked] <= GIMBAL_CONSISTENCY_TOL).all()

    @kernel_settings
    @given(pyr_band_stacks, rpy_band_stacks)
    def test_euler_round_trip_in_the_gimbal_band(self, pyr_stack, rpy_stack):
        for stack, convention in ((pyr_stack, "pyr"), (rpy_stack, "rpy")):
            dev, locked = _round_trip(stack, convention)
            assert (dev[~locked] <= 1e-11).all()
            assert (dev[locked] <= GIMBAL_CONSISTENCY_TOL).all()


class TestLibraryLoops:
    def _spiral_reference(self, spec):
        out = []
        for i in range(spec.count):
            t = i / (spec.count - 1) if spec.count > 1 else 0.0
            pitch = spec.pitch_min + t * (spec.pitch_max - spec.pitch_min)
            out.append(compose_pyr((pitch, _triangle_yaw(t * spec.turns * 2.0 * math.pi), 0.0)))
        return out

    @pytest.mark.parametrize("count", [1, 2, 7, 300])
    def test_spiral_rows(self, count):
        spec = SpiralSpec(count=count, turns=3.0)
        want = self._spiral_reference(spec)
        _same_rows(_spiral_rows(spec, 0, count), want)
        _same_rows(_spiral_rows(spec, count // 3, count), want[count // 3:])

    def test_densify_rolls(self):
        rng = pose_stream(4)
        poses = [random_rotation(rng) for _ in range(CHUNK_RECORDS + 3)]
        want, _ = _scalar_random(poses, math.radians(30.0), 12, 0, 2)
        _same_rows(densify_rolls(poses, math.radians(30.0), 12, multiplier=2), want)
        # other budget types are converted to float first, as random_augment does
        for budget in (np.float32(0.3), Decimal("0.3")):
            want, _ = _scalar_random(poses[:40], budget, 12, 0, 2)
            _same_rows(densify_rolls(poses[:40], budget, 12, multiplier=2), want)

    def test_euler_range_stats(self):
        poses = [random_rotation(pose_stream(9, i)) for i in range(CHUNK_RECORDS + 3)]
        poses += [compose_pyr((0.1, math.pi / 2, -0.4)), AXIS_ALIGNED[5]]
        stats = euler_range_stats(poses)
        cols = list(zip(*(canonical_pyr(r) for r in poses)))
        for got, col in zip((stats.pitch_deg, stats.yaw_deg, stats.roll_deg), cols):
            deg = [math.degrees(v) for v in col]
            assert repr(got) == repr((min(deg), max(deg)))


# --- CLI outputs against the per-record functions and the old writer ---------


def _old_write(records) -> bytes:
    text = "".join(json.dumps(record_to_dict(rec), ensure_ascii=False) + "\n" for rec in records)
    return text.encode("utf-8")


def _input_records(n=CHUNK_RECORDS + 1):
    # Haar rotations with Gimbal-band and axis-aligned poses mixed in; a few
    # records flagged gimbal, all with image paths and provenance.
    out = []
    for i in range(n):
        if i % 50 == 7:
            sign = 1.0 if i % 100 == 7 else -1.0
            r = compose_pyr((0.2, sign * math.pi / 2 + (i % 7 - 3) * GIMBAL_EPS, -0.7))
        elif i % 50 == 9:
            r = AXIS_ALIGNED[i % len(AXIS_ALIGNED)]
        elif i % 50 == 11:
            r = compose_rpy((0.4, -math.pi / 2, 1.1))
        else:
            r = random_rotation(pose_stream(77, i))
        out.append(
            PoseRecord(
                id=f"r{i:05d}",
                rotation=r,
                image_path=f"img/{i}&<x>.png",
                gimbal=i % 97 == 3,
                provenance=[{"kind": "source", "index": i}],
            )
        )
    return out


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    path = root / "in.jsonl"
    records = _input_records()
    path.write_bytes(_old_write(records))
    return path, read_labels(path)


class TestCliParity:
    def test_spiral(self, tmp_path):
        count = CHUNK_RECORDS + 1
        out = tmp_path / "spiral.jsonl"
        assert main(["spiral", "--count", str(count), "--turns", "5", "--output", str(out)]) == 0
        spec = SpiralSpec(count=count, turns=5.0)
        meta = {"kind": "spiral", "count": count, "turns": 5.0,
                "pitch_min_deg": -75.0, "pitch_max_deg": 75.0}
        want = [
            PoseRecord(id=f"spiral_{i:06d}", rotation=r, provenance=[dict(meta, index=i)])
            for i, r in enumerate(TestLibraryLoops()._spiral_reference(spec))
        ]
        assert out.read_bytes() == _old_write(want)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--multiplier", "1", "--seed", "5"],
            ["--multiplier", "3", "--seed", "-9", "--budget-deg", "35"],
            ["--multiplier", "2", "--budget-deg", "0"],
            ["--mode", "rotate", "--angle-deg", "-31.5"],
            ["--mode", "flip", "--angle-deg", "101", "--multiplier", "2"],
        ],
    )
    def test_augment(self, corpus, tmp_path, flags):
        path, records = corpus
        out = tmp_path / "aug.jsonl"
        assert main(["augment", "--input", str(path), "--output", str(out), *flags]) == 0

        opts = dict(zip(flags[::2], flags[1::2]))
        mult = int(opts.get("--multiplier", "1"))
        seed = int(opts.get("--seed", "0"))
        budget = math.radians(float(opts.get("--budget-deg", "20")))
        mode = opts.get("--mode", "random")
        want = []
        for index, rec in enumerate(records):
            rng = pose_stream(seed, index)
            for j in range(mult):
                if mode == "random":
                    rotation, op = random_augment(rec.rotation, budget, rng)
                else:
                    op = AugmentOp(mode, math.radians(float(opts["--angle-deg"])))
                    rotation = apply_augment(rec.rotation, op)
                want.append(PoseRecord(
                    id=rec.id if mult == 1 else f"{rec.id}#a{j}",
                    rotation=rotation,
                    image_path=rec.image_path,
                    provenance=rec.provenance + [op.as_dict()],
                ))
        assert out.read_bytes() == _old_write(want)

    @pytest.mark.parametrize("target", ["matrix", "euler_pyr", "euler_rpy"])
    def test_convert(self, corpus, tmp_path, target):
        path, records = corpus
        out = tmp_path / "conv.jsonl"
        assert main(["convert", "--input", str(path), "--output", str(out), "--target", target]) == 0
        want = []
        for rec in records:
            new = PoseRecord(rec.id, rec.rotation, rec.image_path, provenance=rec.provenance)
            if target == "euler_pyr":
                sol = extract_pyr(rec.rotation)
                new.euler_pyr_deg = tuple(math.degrees(v) for v in sol.primary)
                new.gimbal = sol.kind != "regular" or rec.gimbal
            elif target == "euler_rpy":
                sol = extract_rpy(rec.rotation)
                new.euler_rpy_deg = tuple(math.degrees(v) for v in sol.value)
                new.gimbal = sol.kind != "regular" or rec.gimbal
            want.append(new)
        assert any(rec.gimbal for rec in want) == (target != "matrix")
        assert out.read_bytes() == _old_write(want)

    def test_convert_keeps_the_other_view(self, corpus, tmp_path):
        path, records = corpus
        pyr, both = tmp_path / "pyr.jsonl", tmp_path / "both.jsonl"
        assert main(["convert", "--input", str(path), "--output", str(pyr), "--target", "euler_pyr"]) == 0
        assert main(["convert", "--input", str(pyr), "--output", str(both), "--target", "euler_rpy"]) == 0
        lines = [json.loads(line) for line in both.read_text().splitlines()]
        assert all("euler_pyr_deg" in obj and "euler_rpy_deg" in obj for obj in lines)

    def test_draw(self, corpus, tmp_path):
        path, records = corpus
        out = tmp_path / "svg"
        assert main(["draw", "--input", str(path), "--output", str(out), "--size", "80"]) == 0
        spec = DrawSpec(center=(225.0, 225.0), size=80.0)
        assert len(os.listdir(out)) == len(records)
        for rec in records:
            svg = render_svg(segments(project_axes(rec.rotation), spec), 450.0, 450.0,
                             background_href=rec.image_path)
            assert (out / f"{rec.id}.svg").read_bytes() == svg.encode("utf-8")


class TestCliErrors:
    """Inputs at the edges of the label contract.  A rotation inside the
    file tolerance (1e-6) but outside ORTHO_TOL (1e-9) is read as its
    nearest rotation, so every command gives the bytes it gives on a file
    that holds the repaired rotation written exactly; a bad budget is
    refused."""

    @pytest.fixture
    def loose_file(self, tmp_path):
        records = _input_records()
        bad = records[CHUNK_RECORDS]
        bad.rotation = np.asarray(bad.rotation) * LOOSE_SCALE
        path = tmp_path / "loose.jsonl"
        path.write_bytes(_old_write(records))
        return path

    @staticmethod
    def _repaired(path, bad_ids):
        # the file as the reader sees it: the same records, each loose
        # rotation replaced by the read one, written exactly
        records = read_labels(path)
        stored = [json.loads(line)["rotation"] for line in path.read_text().splitlines()]
        for rec, rotation in zip(records, stored):
            assert is_rotation(rec.rotation, 1e-13)
            assert (rec.id in bad_ids) != (rec.rotation.tobytes() == np.array(rotation).tobytes())
        repaired = path.with_name("repaired.jsonl")
        repaired.write_bytes(_old_write(records))
        return repaired

    @staticmethod
    def _run(argv, path, out, capsys):
        # exit code, stdout with the output path cut out, and the output's
        # bytes: a file's, or each file's of a directory
        code = main([*argv, "--input", str(path), "--output", str(out)])
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        if out.is_dir():
            return code, stdout, {name: (out / name).read_bytes() for name in os.listdir(out)}
        return code, stdout, out.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["augment"],
            ["augment", "--multiplier", "3"],
            ["augment", "--mode", "flip", "--angle-deg", "10"],
            ["convert", "--target", "euler_pyr"],
            ["convert", "--target", "euler_rpy"],
        ],
    )
    def test_label_commands(self, loose_file, tmp_path, capsys, argv):
        repaired = self._repaired(loose_file, {"r01024"})
        got = self._run(argv, loose_file, tmp_path / "out.jsonl", capsys)
        assert got[0] == 0
        assert got == self._run(argv, repaired, tmp_path / "want.jsonl", capsys)

    def test_draw(self, loose_file, tmp_path, capsys):
        repaired = self._repaired(loose_file, {"r01024"})
        got = self._run(["draw"], loose_file, tmp_path / "svg", capsys)
        assert got[0] == 0 and len(got[2]) == CHUNK_RECORDS + 1
        assert got == self._run(["draw"], repaired, tmp_path / "want", capsys)

    def test_a_float32_rounded_record_is_repaired(self, tmp_path, capsys):
        # float32 rounding leaves an SO(3) residual of about 1e-8: the reader
        # accepts the record and replaces its rotation by the nearest one,
        # which every command then takes as it is
        r = random_rotation(pose_stream(5)).astype(np.float32).astype(float)
        assert is_rotation(r, 1e-6) and not is_rotation(r, 1e-9)
        path = tmp_path / "f32.jsonl"
        path.write_text("".join(json.dumps({"id": rec_id, "rotation": m.ravel().tolist()}) + "\n"
                                for rec_id, m in (("exact", np.eye(3)), ("f32", r))))
        repaired = self._repaired(path, {"f32"})
        for k, argv in enumerate([["convert", "--target", "euler_pyr"],
                                  ["convert", "--target", "matrix"],
                                  ["augment"], ["stats"], ["draw"], ["pca"]]):
            got = self._run(argv, path, tmp_path / f"out{k}", capsys)
            assert got[0] == 0
            assert got == self._run(argv, repaired, tmp_path / f"want{k}", capsys), argv
        # eval sees the repaired rows: they lie at 0 from the written ones
        report, want = tmp_path / "eval.csv", tmp_path / "want.csv"
        assert main(["eval", "--input", str(path), str(repaired), "--output", str(report)]) == 0
        assert main(["eval", "--input", str(repaired), str(repaired), "--output", str(want)]) == 0
        assert report.read_bytes() == want.read_bytes() == b"id,geodesic_rad\nexact,0.0\nf32,0.0\n"
        # the library still refuses the loose matrix itself
        with pytest.raises(ValueError) as info:
            euler_range_stats([r])
        assert str(info.value) == "input is not a rotation matrix within tol=1e-09"

    def test_matrix_target_has_no_so3_check(self, loose_file, tmp_path):
        out = tmp_path / "out.jsonl"
        assert main(["convert", "--input", str(loose_file), "--output", str(out),
                     "--target", "matrix"]) == 0

    @pytest.mark.parametrize("budget", ["100", "-1", "nan"])
    def test_bad_budget(self, corpus, tmp_path, capsys, budget):
        path, _ = corpus
        out = tmp_path / "out.jsonl"
        assert main(["augment", "--input", str(path), "--output", str(out),
                     "--budget-deg", budget]) == 1
        assert capsys.readouterr().err == "rotkit: error: budget must lie in [0, pi/2]\n"
        assert not out.exists()


def _no_second_check(a, tol):
    raise ValueError("a stack was checked twice")


class TestCheckedOnce:
    """Each stack is checked once, where it enters: the reader's stacks
    reach augment's and convert's kernels with no further SO(3) check, and
    the library functions that take poses check them."""

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize(
        "argv",
        [
            ["augment", "--multiplier", "2"],
            ["augment", "--mode", "flip", "--angle-deg", "10"],
            ["convert", "--target", "euler_pyr"],
            ["convert", "--target", "euler_rpy"],
        ],
    )
    def test_cli_kernels(self, corpus, tmp_path, monkeypatch, capsys, argv, cores):
        path, _ = corpus
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        want = TestCliErrors._run(argv, path, tmp_path / "want.jsonl", capsys)
        monkeypatch.setattr(core, "_is_rotation_batch", _no_second_check)
        got = TestCliErrors._run(argv, path, tmp_path / "got.jsonl", capsys)
        assert want[0] == 0 and got == want

    def test_library_entry_points(self, monkeypatch):
        monkeypatch.setattr(core, "_is_rotation_batch", _no_second_check)
        with pytest.raises(ValueError, match="checked twice"):
            densify_rolls([np.eye(3)], 0.1, 0)
        with pytest.raises(ValueError, match="checked twice"):
            euler_range_stats([np.eye(3)])
