import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rotkit import (
    PoseRecord,
    compose_pyr,
    compose_rpy,
    random_rotation,
    read_labels,
    write_labels,
)
from rotkit.augment import pose_stream
from rotkit.cli import main
from rotkit.coverage import pca_project


def _write(tmp_path, name, records):
    path = tmp_path / name
    write_labels(records, path)
    return path


def _sample_records(n, seed=0):
    rng = pose_stream(seed)
    return [PoseRecord(id=f"s{i:03d}", rotation=random_rotation(rng)) for i in range(n)]


class TestAugmentCommand:
    def test_fixed_flip_is_involutive(self, tmp_path):
        src = _write(tmp_path, "src.jsonl", _sample_records(20))
        once = tmp_path / "once.jsonl"
        twice = tmp_path / "twice.jsonl"
        flags = ["augment", "--mode", "flip", "--angle-deg", "37.5"]
        assert main(flags + ["--input", str(src), "--output", str(once)]) == 0
        assert main(flags + ["--input", str(once), "--output", str(twice)]) == 0
        for a, b in zip(read_labels(src), read_labels(twice)):
            assert a.id == b.id
            assert np.abs(a.rotation - b.rotation).max() < 1e-12

    def test_fixed_flip_90_keeps_frontal_faces(self, tmp_path):
        records = [PoseRecord(id=f"f{i}", rotation=np.eye(3)) for i in range(5)]
        src = _write(tmp_path, "front.jsonl", records)
        out = tmp_path / "out.jsonl"
        assert main([
            "augment", "--mode", "flip", "--angle-deg", "90",
            "--input", str(src), "--output", str(out),
        ]) == 0
        for rec in read_labels(out):
            assert np.abs(rec.rotation - np.eye(3)).max() < 1e-12

    def test_random_budget_zero_membership(self, tmp_path):
        from rotkit import flip_image_label

        records = _sample_records(30, seed=5)
        src = _write(tmp_path, "src.jsonl", records)
        out = tmp_path / "out.jsonl"
        assert main([
            "augment", "--mode", "random", "--budget-deg", "0", "--seed", "9",
            "--input", str(src), "--output", str(out),
        ]) == 0
        for orig, rec in zip(records, read_labels(out)):
            mirrored = flip_image_label(orig.rotation, math.pi / 2)
            assert (
                np.array_equal(rec.rotation, orig.rotation)
                or np.array_equal(rec.rotation, mirrored)
            )

    def test_multiplier_expands_records(self, tmp_path):
        src = _write(tmp_path, "src.jsonl", _sample_records(7))
        out = tmp_path / "out.jsonl"
        assert main([
            "augment", "--multiplier", "3", "--seed", "1",
            "--input", str(src), "--output", str(out),
        ]) == 0
        back = read_labels(out)
        assert len(back) == 21
        assert back[0].id == "s000#a0"

    def test_provenance_appended(self, tmp_path):
        src = _write(tmp_path, "src.jsonl", _sample_records(3))
        out = tmp_path / "out.jsonl"
        main(["augment", "--mode", "rotate", "--angle-deg", "10",
              "--input", str(src), "--output", str(out)])
        for rec in read_labels(out):
            assert rec.provenance[-1]["kind"] == "rotate"
            assert rec.provenance[-1]["angle_deg"] == 10.0

    def test_fixed_mode_requires_angle(self, tmp_path):
        src = _write(tmp_path, "src.jsonl", _sample_records(1))
        code = main(["augment", "--mode", "rotate",
                     "--input", str(src), "--output", str(tmp_path / "o.jsonl")])
        assert code == 1

    @pytest.mark.parametrize("multiplier", ["0", "-3"])
    def test_multiplier_below_one_rejected(self, tmp_path, capsys, multiplier):
        src = _write(tmp_path, "src.jsonl", _sample_records(4))
        out = tmp_path / "out.jsonl"
        code = main(["augment", "--multiplier", multiplier,
                     "--input", str(src), "--output", str(out)])
        assert code == 1
        assert "--multiplier" in capsys.readouterr().err
        assert not out.exists()


class TestConvertCommand:
    def test_euler_pyr_round_trip(self, tmp_path):
        src = _write(tmp_path, "src.jsonl", _sample_records(10, seed=2))
        out = tmp_path / "out.jsonl"
        assert main(["convert", "--target", "euler_pyr",
                     "--input", str(src), "--output", str(out)]) == 0
        for rec in read_labels(out):
            assert rec.euler_pyr_deg is not None

    def test_identity_records_get_zero_euler(self, tmp_path):
        src = _write(tmp_path, "id.jsonl", [PoseRecord(id="i", rotation=np.eye(3))])
        out = tmp_path / "out.jsonl"
        main(["convert", "--target", "euler_pyr", "--input", str(src), "--output", str(out)])
        (rec,) = read_labels(out)
        assert rec.euler_pyr_deg == (0.0, 0.0, 0.0)

    def test_euler_rpy_recomposes(self, tmp_path):
        src = _write(tmp_path, "src.jsonl", _sample_records(10, seed=3))
        out = tmp_path / "out.jsonl"
        assert main(["convert", "--target", "euler_rpy",
                     "--input", str(src), "--output", str(out)]) == 0
        for rec in read_labels(out):
            recomposed = compose_rpy([math.radians(v) for v in rec.euler_rpy_deg])
            assert np.linalg.norm(recomposed - rec.rotation) < 1e-9

    def test_gimbal_record_gets_flag(self, tmp_path):
        label = (-16.090911401458296, -89.9985818251308, -6.854511900533989)
        r = compose_pyr([math.radians(v) for v in label])
        src = _write(tmp_path, "gimbal.jsonl", [PoseRecord(id="g", rotation=r)])
        out = tmp_path / "out.jsonl"
        assert main(["convert", "--target", "euler_pyr",
                     "--input", str(src), "--output", str(out)]) == 0
        (rec,) = read_labels(out)
        assert rec.gimbal
        assert abs(rec.euler_pyr_deg[1] - (-90.0)) < 1e-12

    def test_matrix_target_strips_views(self, tmp_path):
        src = _write(
            tmp_path, "src.jsonl",
            [PoseRecord(id="a", rotation=np.eye(3), euler_pyr_deg=(0.0, 0.0, 0.0))],
        )
        out = tmp_path / "out.jsonl"
        main(["convert", "--target", "matrix", "--input", str(src), "--output", str(out)])
        (rec,) = read_labels(out)
        assert rec.euler_pyr_deg is None


class TestEvalCommand:
    def test_self_eval_prints_zero(self, tmp_path, capsys):
        src = _write(tmp_path, "gt.jsonl", _sample_records(8, seed=4))
        assert main(["eval", "--input", str(src), str(src)]) == 0
        out = capsys.readouterr().out
        assert "mean=" in out

    def test_report_csv(self, tmp_path):
        records = _sample_records(5, seed=6)
        gt = _write(tmp_path, "gt.jsonl", records)
        pred = _write(tmp_path, "pred.jsonl", records)
        csv = tmp_path / "report.csv"
        assert main(["eval", "--input", str(pred), str(gt), "--output", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "id,geodesic_rad"
        assert len(lines) == 6

    def test_mismatched_ids_exit_code(self, tmp_path):
        gt = _write(tmp_path, "gt.jsonl", _sample_records(3, seed=7))
        pred = _write(tmp_path, "pred.jsonl", _sample_records(2, seed=7))
        assert main(["eval", "--input", str(pred), str(gt)]) == 1


# ids that a CSV field must quote, and plain ones around them
_CSV_IDS = ["a,b", 'say "hi"', "line\nbreak", "cr\rlf\r\n", '"', "", "plain", "ünï"]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestCsvIds:
    """CSV reports quote the ids that need it (RFC 4180), so every id
    reads back whole, and write every value as repr(float)."""

    @pytest.fixture
    def ids_file(self, tmp_path):
        rng = pose_stream(9)
        records = [PoseRecord(id=rec_id, rotation=random_rotation(rng)) for rec_id in _CSV_IDS]
        return _write(tmp_path, "ids.jsonl", records)

    def test_eval(self, tmp_path, ids_file):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--input", str(ids_file), str(ids_file), "--output", str(out)]) == 0
        assert _read_csv(out) == [["id", "geodesic_rad"]] + [[i, "0.0"] for i in _CSV_IDS]

    def test_pca(self, tmp_path, ids_file):
        out = tmp_path / "pca.csv"
        assert main(["pca", "--input", str(ids_file), "--output", str(out)]) == 0
        stack = np.array([rec.rotation for rec in read_labels(ids_file)])
        projected = pca_project(stack.reshape(-1, 9), k=3).projected.tolist()
        assert _read_csv(out) == [["id", "pc1", "pc2", "pc3"]] + [
            [i, *map(repr, row)] for i, row in zip(_CSV_IDS, projected)
        ]

    def test_plain_ids_keep_their_bytes(self, tmp_path):
        ids = ["s0", "x y", "it's", "tab\there", "ünï"]
        labels = _write(tmp_path, "plain.jsonl", [PoseRecord(i, np.eye(3)) for i in ids])
        out = tmp_path / "eval.csv"
        assert main(["eval", "--input", str(labels), str(labels), "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "id,geodesic_rad\n" + "".join(
            f"{i},0.0\n" for i in ids
        )


class TestSpiralStatsPcaCommands:
    def test_spiral_then_stats(self, tmp_path):
        labels = tmp_path / "spiral.jsonl"
        assert main(["spiral", "--count", "144", "--output", str(labels)]) == 0
        csv = tmp_path / "stats.csv"
        assert main(["stats", "--input", str(labels), "--output", str(csv)]) == 0
        rows = dict(
            line.split(",", 1) for line in csv.read_text().splitlines()[1:]
        )
        roll_min, roll_max = (float(v) for v in rows["roll"].split(","))
        assert abs(roll_min) < 1e-8 and abs(roll_max) < 1e-8

    def test_pca_csv(self, tmp_path):
        labels = _write(tmp_path, "src.jsonl", _sample_records(40, seed=8))
        csv = tmp_path / "pca.csv"
        assert main(["pca", "--input", str(labels), "--output", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "id,pc1,pc2,pc3"
        assert len(lines) == 41

    def test_pca_identical_rotations_project_to_zero(self, tmp_path):
        records = [PoseRecord(id=f"i{i}", rotation=compose_pyr((0.1, 0.2, 0.3))) for i in range(6)]
        labels = _write(tmp_path, "same.jsonl", records)
        csv = tmp_path / "pca.csv"
        assert main(["pca", "--input", str(labels), "--output", str(csv)]) == 0
        for line in csv.read_text().splitlines()[1:]:
            _, *coords = line.split(",")
            assert all(abs(float(c)) < 1e-12 for c in coords)


class TestDrawCommand:
    def test_writes_svg_per_record(self, tmp_path):
        records = [
            PoseRecord(id="front", rotation=np.eye(3), image_path="img/f.jpg"),
            PoseRecord(id="turned", rotation=compose_pyr((0.1, 0.6, -0.2))),
        ]
        labels = _write(tmp_path, "src.jsonl", records)
        out_dir = tmp_path / "svg"
        assert main(["draw", "--input", str(labels), "--output", str(out_dir)]) == 0
        front = (out_dir / "front.svg").read_text()
        assert front.count("<line ") == 3
        assert "img/f.jpg" in front
        assert (out_dir / "turned.svg").exists()

    def test_id_sanitization(self, tmp_path):
        labels = _write(tmp_path, "src.jsonl", [PoseRecord(id="a/b c", rotation=np.eye(3))])
        out_dir = tmp_path / "svg"
        main(["draw", "--input", str(labels), "--output", str(out_dir)])
        assert (out_dir / "a_b_c.svg").exists()

    @pytest.mark.parametrize("ids, named", [
        (("a/b", "a_b", "a:b"), "'a/b', 'a_b', 'a:b'"),
        (("x", "y", "x"), "'x', 'x'"),
    ])
    def test_colliding_file_names_rejected(self, tmp_path, capsys, ids, named):
        records = [PoseRecord(id=i, rotation=np.eye(3)) for i in ids]
        labels = _write(tmp_path, "src.jsonl", records)
        out_dir = tmp_path / "svg"
        assert main(["draw", "--input", str(labels), "--output", str(out_dir)]) == 1
        assert named in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--width", "nan", "--height", "inf", "--center", "10", "10"],
         "width and height must be finite and positive"),
        (["--width", "nan"], "width and height must be finite and positive"),
        (["--height", "-1"], "width and height must be finite and positive"),
        (["--size", "0"], "size must be finite and positive"),
        (["--center", "inf", "0"], "center must be finite"),
    ])
    @pytest.mark.parametrize("source", ["valid", "missing"])
    def test_bad_flag_fails_before_the_input_is_read(self, tmp_path, capsys, flags, message,
                                                      source):
        labels = tmp_path / "absent.jsonl"
        if source == "valid":
            labels = _write(tmp_path, "src.jsonl", [PoseRecord(id="a", rotation=np.eye(3))])
        out_dir = tmp_path / "svg"
        assert main(["draw", "--input", str(labels), "--output", str(out_dir), *flags]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"rotkit: error: {message}\n")
        assert not out_dir.exists()

    def test_over_long_file_name_rejected_before_any_write(self, tmp_path, capsys):
        # the limit is that of the nearest existing directory above --output
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        longest = "b" * (limit - len(".svg"))
        ids = ["a", longest + "b", "c"]
        labels = _write(tmp_path, "src.jsonl", [PoseRecord(id=i, rotation=np.eye(3)) for i in ids])
        out_dir = tmp_path / "new" / "svg"
        assert main(["draw", "--input", str(labels), "--output", str(out_dir)]) == 1
        captured = capsys.readouterr()
        want = f"rotkit: error: id {ids[1]!r}: file name longer than {limit} bytes\n"
        assert (captured.out, captured.err) == ("", want)
        assert not (tmp_path / "new").exists()
        # a name of exactly the limit is written
        labels = _write(tmp_path, "src.jsonl", [PoseRecord(id=longest, rotation=np.eye(3))])
        assert main(["draw", "--input", str(labels), "--output", str(out_dir)]) == 0
        assert os.listdir(out_dir) == [longest + ".svg"]

    @pytest.mark.parametrize("href", ["a\x01b.jpg", "x\ud800.jpg"])
    def test_image_path_outside_xml_rejected_before_any_write(self, tmp_path, capsys, href):
        # a control character made an SVG that no XML parser reads, and a
        # lone surrogate failed to encode after the earlier SVGs were written;
        # the reader refuses a lone surrogate before draw sees it, as no
        # label file can hold one
        labels = tmp_path / "src.jsonl"
        lines = [{"id": i, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "image_path": path}
                 for i, path in (("a", "a.jpg"), ("b", href), ("c", "c.jpg"))]
        labels.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        out_dir = tmp_path / "svg"
        assert main(["draw", "--input", str(labels), "--output", str(out_dir)]) == 1
        captured = capsys.readouterr()
        if "\ud800" in href:
            rule = "holds a lone surrogate, which UTF-8 cannot encode"
        else:
            rule = f"{href!r} is not valid XML 1.0"
        want = f"rotkit: error: record 'b': image_path {rule}\n"
        assert (captured.out, captured.err) == ("", want)
        assert not out_dir.exists()
        out_dir.mkdir()
        assert main(["draw", "--input", str(labels), "--output", str(out_dir)]) == 1
        assert os.listdir(out_dir) == []


class TestDeterminismAndSeeds:
    def test_random_augment_rerun_is_byte_identical(self, tmp_path):
        src = _write(tmp_path, "src.jsonl", _sample_records(25, seed=9))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        flags = ["augment", "--seed", "77", "--budget-deg", "15"]
        assert main(flags + ["--input", str(src), "--output", str(a)]) == 0
        assert main(flags + ["--input", str(src), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        src = _write(tmp_path, "src.jsonl", _sample_records(10, seed=10))
        a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
        monkeypatch.setenv("ROTKIT_SEED", "123")
        main(["augment", "--input", str(src), "--output", str(a)])
        main(["augment", "--input", str(src), "--output", str(b)])
        monkeypatch.setenv("ROTKIT_SEED", "124")
        main(["augment", "--input", str(src), "--output", str(c)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_explicit_seed_overrides_env(self, tmp_path, monkeypatch):
        src = _write(tmp_path, "src.jsonl", _sample_records(10, seed=11))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("ROTKIT_SEED", "123")
        main(["augment", "--seed", "5", "--input", str(src), "--output", str(a)])
        monkeypatch.delenv("ROTKIT_SEED")
        main(["augment", "--seed", "5", "--input", str(src), "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        code = main(["stats", "--input", str(tmp_path / "absent.jsonl")])
        assert code == 2

    def test_invalid_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x", "rotation": [9,0,0,0,9,0,0,0,9]}\n', encoding="utf-8")
        assert main(["stats", "--input", str(path)]) == 1

    def test_success(self, tmp_path):
        src = _write(tmp_path, "src.jsonl", _sample_records(2, seed=12))
        assert main(["stats", "--input", str(src)]) == 0


# every flag error of every command, each with its message
FLAG_ERRORS = [
    (["augment", "--multiplier", "0"], {}, "--multiplier must be at least 1, got 0"),
    (["augment", "--mode", "rotate"], {}, "--angle-deg is required for mode rotate"),
    (["augment", "--mode", "rotate", "--angle-deg", "nan"], {}, "augment angle must be finite"),
    (["augment", "--budget-deg", "100"], {}, "budget must lie in [0, pi/2]"),
    (["augment"], {"ROTKIT_SEED": "abc"}, "ROTKIT_SEED must be an integer, got 'abc'"),
    (["draw", "--width", "0"], {}, "width and height must be finite and positive"),
    (["draw", "--size", "-1"], {}, "size must be finite and positive"),
    (["draw", "--size", "inf"], {}, "size must be finite and positive"),
    (["draw", "--size", "1e308", "--center", "1e308", "0"], {},
     "center and size must keep the drawing finite"),
    (["draw", "--center", "nan", "1"], {}, "center must be finite"),
    (["spiral", "--count", "0"], {}, "count must be >= 1"),
    (["spiral", "--turns", "0"], {}, "turns must be finite and positive"),
    (["spiral", "--turns", "inf"], {}, "turns must be finite and positive"),
    (["spiral", "--pitch-range", "80", "-80"], {},
     "pitch range must satisfy -pi/2 < min <= max < pi/2"),
]


@pytest.mark.parametrize("source", ["missing", "empty"])
@pytest.mark.parametrize("argv, env, message", FLAG_ERRORS, ids=[
    " ".join([*argv, *(f"{name}={value}" for name, value in env.items())])
    for argv, env, _ in FLAG_ERRORS
])
def test_flags_are_checked_before_the_input(tmp_path, capsys, monkeypatch, argv, env, message,
                                            source):
    # the README's rule: every command checks its flags before it reads its
    # input, so a bad flag wins over a missing or empty input and nothing
    # is written (spiral reads no input)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    path = tmp_path / "in.jsonl"
    if source == "empty":
        path.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    inputs = [] if argv[0] == "spiral" else ["--input", str(path)]
    assert main([*argv, *inputs, "--output", str(out)]) == 1
    assert capsys.readouterr() == ("", f"rotkit: error: {message}\n")
    assert not out.exists()


def test_fixed_modes_ignore_the_budget(tmp_path, capsys):
    path, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    path.write_text("", encoding="utf-8")
    argv = ["augment", "--mode", "flip", "--angle-deg", "10", "--budget-deg", "500"]
    assert main([*argv, "--input", str(path), "--output", str(out)]) == 0
    assert capsys.readouterr() == ("augment: 0 records -> 0 (0 rotate, 0 flip)\n", "")
    assert out.read_bytes() == b""


@pytest.mark.parametrize("content", ["", "\n  \n\n"], ids=["empty", "blank_lines"])
@pytest.mark.parametrize("command, code, stdout, stderr, made", [
    (["stats", "--output", "{out}"], 1, "", "rotkit: error: pose list is empty\n", False),
    (["pca", "--output", "{out}"], 1, "", "rotkit: error: pca needs at least 2 records\n", False),
    (["eval", "--output", "{out}"], 1, "", "rotkit: error: no records to evaluate\n", False),
    (["convert", "--target", "euler_pyr", "--output", "{out}"], 0,
     "convert: 0 records to euler_pyr (0 gimbal)\n", "", True),
    (["augment", "--multiplier", "2", "--output", "{out}"], 0,
     "augment: 0 records -> 0 (0 rotate, 0 flip)\n", "", True),
    (["draw", "--output", "{out}"], 0, "draw: wrote 0 SVG files to {out}\n", "", True),
])
def test_input_without_records(tmp_path, capsys, content, command, code, stdout, stderr, made):
    # the README's rule: the commands that report on a pose set fail, the
    # ones that transform it write an empty file or directory
    path = tmp_path / "in.jsonl"
    path.write_text(content, encoding="utf-8")
    out = tmp_path / "out"
    inputs = [str(path)] * (2 if command[0] == "eval" else 1)
    argv = [arg.format(out=out) for arg in command] + ["--input", *inputs]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (stdout.format(out=out), stderr)
    assert out.exists() == made
    if made:
        assert (os.listdir(out) if out.is_dir() else out.read_bytes()) in ([], b"")


@pytest.mark.parametrize("command", [
    ["augment", "--multiplier", "2"],
    ["convert", "--target", "euler_pyr"],
])
def test_deep_provenance_is_one_error_line(tmp_path, command):
    # the JSON encoder ran out of stack on such a record, which the decoder
    # still took, and the command ended in a traceback
    path = tmp_path / "deep.jsonl"
    deep = "[" * 980 + "]" * 980
    path.write_text(
        '{"id": "a", "rotation": [1,0,0,0,1,0,0,0,1], "provenance": ' + deep + "}\n",
        encoding="utf-8",
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [*command, "--input", str(path), "--output", str(tmp_path / "out.jsonl")]
    out = subprocess.run([sys.executable, "-m", "rotkit.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == "rotkit: error: record 'a': provenance nests deeper than 64 levels\n"
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("provenance", [[{"kind": "x\ud800"}], [{"x\udfff": "flip"}]],
                         ids=["value", "key"])
@pytest.mark.parametrize("command", [
    ["augment", "--multiplier", "2"],
    ["convert", "--target", "matrix"],
    ["stats"],
    ["draw"],
])
def test_provenance_surrogate_names_the_record(tmp_path, capsys, command, provenance):
    # augment and convert failed to encode the output with a codec message
    # that named no record
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps({"id": "a", "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                                "provenance": provenance}) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([*command, "--input", str(path), "--output", str(out)]) == 1
    want = ("rotkit: error: record 'a': provenance holds a lone surrogate, "
            "which UTF-8 cannot encode\n")
    assert capsys.readouterr() == ("", want)
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["convert", "--target", "matrix"],
    ["convert", "--target", "euler_pyr"],
    ["convert", "--target", "euler_rpy"],
    ["augment"],
])
def test_unknown_fields_are_dropped(tmp_path, command):
    # the README's rule: the reader keeps the label format's fields alone,
    # so a field it does not know is not written back, with no word
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps({"id": "a", "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                                "angles": [10, 20, 30]}) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main([*command, "--input", str(path), "--output", str(out)]) == 0
    (obj,) = map(json.loads, out.read_text(encoding="utf-8").splitlines())
    assert obj["id"] == "a" and "angles" not in obj
    assert set(obj) <= {"id", "rotation", "euler_pyr_deg", "euler_rpy_deg", "gimbal",
                        "provenance"}


def _fresh(code):
    """The last line that `code`, run in a fresh interpreter, prints."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def _loaded_modules(code, prefixes):
    """Modules under `prefixes` loaded after running `code` in a fresh interpreter."""
    return _fresh(code + f"; print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))")


# xml.sax.saxutils pulls in urllib.request, http.client and email.*,
# statistics pulls in fractions and decimal, and numpy.random pulls in
# secrets, hashlib and hmac; a command would otherwise import and, without a
# warm bytecode cache, compile them.  The CLI's workers are forked with os,
# not started through multiprocessing.  hashlib, which loads OpenSSL, is
# imported by the stack cache only when it is used.
HEAVY = ("xml.sax", "urllib.request", "http.client", "email", "statistics",
         "fractions", "decimal", "numpy.random", "multiprocessing", "hashlib")


def test_cli_import_leaves_heavy_stdlib_modules_out():
    # numpy and the rotkit layers are imported by each command when it
    # starts, so building the parser needs the table of conventions alone
    code = "import sys, rotkit.cli; rotkit.cli.build_parser()"
    assert _loaded_modules(code, (*HEAVY, "numpy")) == "[]"
    assert _loaded_modules(code, ("rotkit",)) == str(["rotkit", "rotkit._conventions",
                                                       "rotkit.cli"])


# Each command's flags on a spiral file IN, and the rotkit modules it loads
# besides the package, cli, core and the table of conventions.
LOADED_BY = [
    ("augment", "--input IN --output OUT", "augment drawing euler labels"),
    ("convert", "--target euler_pyr --input IN --output OUT", "euler labels"),
    ("eval", "--input IN IN", "euler evaluate labels"),
    ("spiral", "--count 6 --output OUT", "coverage eigen euler labels"),
    ("pca", "--input IN --output OUT", "coverage eigen euler evaluate labels"),
    ("stats", "--input IN", "coverage eigen euler labels"),
    ("draw", "--input IN --output OUT", "drawing euler labels"),
]
COMMANDS = [command for command, _, _ in LOADED_BY]
# These read their input through the stack cache, which hashes the input's
# bytes for its key even when the cache directory cannot be made.
HASH_INPUT = {"eval", "pca", "stats", "draw"}


def test_help_and_usage_errors_leave_numpy_out():
    # argparse answers these alone, before any command starts
    argvs = [["--help"], *([command, "--help"] for command in COMMANDS),
             ["convert", "--target", "bogus", "--input", "a", "--output", "b"]]
    code = (
        "import sys, rotkit.cli\n"
        "codes = []\n"
        f"for argv in {argvs!r}:\n"
        "    try:\n"
        "        rotkit.cli.main(argv)\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "print([codes, [m for m in sys.modules if m.startswith('numpy')]])"
    )
    assert _fresh(code) == str([[0] * (1 + len(COMMANDS)) + [2], []])


@pytest.mark.parametrize("command, flags, loads", LOADED_BY, ids=COMMANDS)
def test_each_command_loads_its_own_modules(tmp_path, command, flags, loads):
    path = str(tmp_path / "spiral.jsonl")
    assert main(["spiral", "--count", "6", "--output", path]) == 0
    files = {"IN": path, "OUT": str(tmp_path / "out")}
    argv = [command, *(files.get(flag, flag) for flag in flags.split())]
    code = f"import sys, rotkit.cli; assert rotkit.cli.main({argv!r}) == 0"
    layers = ["_conventions", "cli", "core", *loads.split()]
    heavy = [m for m in HEAVY if m != "hashlib" or command not in HASH_INPUT]
    # a heavy module the command loads shows up in the list beside its layers
    assert _loaded_modules(code, ("rotkit", *heavy)) == str(["rotkit", *sorted(
        f"rotkit.{layer}" for layer in layers)])


def test_eval_leaves_numpy_ma_out(tmp_path):
    # np.median imports numpy.ma, which without a warm bytecode cache takes
    # longer to compile than eval's arithmetic on thousands of records
    path = tmp_path / "spiral.jsonl"
    assert main(["spiral", "--count", "6", "--output", str(path)]) == 0
    argv = ["eval", "--input", str(path), str(path)]
    code = f"import sys, rotkit.cli; assert rotkit.cli.main({argv!r}) == 0"
    assert _loaded_modules(code, ("numpy.ma.", "statistics", "multiprocessing")) == "[]"


def test_random_augment_leaves_numpy_random_out(tmp_path):
    # the random ops come from Philox in plain uint64 arithmetic
    src, out = tmp_path / "spiral.jsonl", tmp_path / "out.jsonl"
    assert main(["spiral", "--count", "5", "--output", str(src)]) == 0
    code = (
        "import sys, rotkit.cli; "
        f"rotkit.cli.main(['augment', '--mode', 'random', '--multiplier', '3', "
        f"'--input', {str(src)!r}, '--output', {str(out)!r}])"
    )
    assert _loaded_modules(code, ("numpy.random", "multiprocessing")) == "[]"
    assert len(read_labels(out)) == 15
