"""The CLI over the chunk reader: eval, stats and pca against the
per-record library path, errors in streamed commands, atomic CSV writes
and flat memory in augment and convert."""

import builtins
import errno
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from rotkit import (
    GIMBAL_EPS,
    PoseRecord,
    compose_pyr,
    compose_rpy,
    euler_range_stats,
    extract_pyr,
    extract_rpy,
    mean_geodesic_error,
    pca_project,
    pose_stream,
    random_rotation,
    read_labels,
    rot_x_left,
    rot_z_left,
)
from rotkit import labels
from rotkit.cli import main
from rotkit.labels import record_from_dict

N = labels.CHUNK_RECORDS + 1


def _deg(angles):
    return [math.degrees(v) for v in angles]


def _truth_objects(n):
    """Annotated records: Haar rotations with Euler views, and Gimbal-band
    rows of both conventions on both sides of the lock threshold."""
    rng = pose_stream(21)
    objs = []
    for i in range(n):
        obj = {"id": f"t{i:05d}"}
        offset = (i % 21 - 10) * GIMBAL_EPS
        sign = 1.0 if i % 2 else -1.0
        if i % 20 == 3:
            r = compose_pyr((rng.uniform(-1, 1), sign * (math.pi / 2 - offset), rng.uniform(-1, 1)))
            sol = extract_pyr(r)
            obj["euler_pyr_deg"] = _deg(sol.primary)
            obj["gimbal"] = sol.kind != "regular"
        elif i % 20 == 8:
            r = compose_rpy((rng.uniform(-1, 1), sign * (math.pi / 2 - offset), rng.uniform(-1, 1)))
            sol = extract_rpy(r)
            obj["euler_rpy_deg"] = _deg(sol.value)
            obj["gimbal"] = sol.kind != "regular"
        else:
            r = random_rotation(rng)
            if i % 2 == 0:
                obj["euler_pyr_deg"] = _deg(extract_pyr(r).primary)
            if i % 3 == 0:
                obj["euler_rpy_deg"] = _deg(extract_rpy(r).value)
                obj["provenance"] = [{"kind": "source", "index": i}]
        obj["rotation"] = r.reshape(9).tolist()
        objs.append(obj)
    return objs


def _pred_objects(truth):
    """Predictions in reverse order: identical, small-angle, near-pi and
    generic errors against the truth."""
    rng = pose_stream(22)
    objs = []
    for i, obj in reversed(list(enumerate(truth))):
        r = np.array(obj["rotation"]).reshape(3, 3)
        kind = i % 10
        if kind == 1:
            r = rot_z_left(1e-8 * (1 + i % 7)) @ r
        elif kind == 2:
            r = rot_x_left(math.pi - 1e-4 * (1 + i % 5)) @ r
        elif kind > 2:
            r = compose_pyr((rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))) @ r
        objs.append({"id": obj["id"], "rotation": r.reshape(9).tolist()})
    return objs


def _write_objects(path, objs):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("annotated")
    truth = _truth_objects(N)
    assert any(obj.get("gimbal") for obj in truth)
    return (
        _write_objects(root / "pred.jsonl", _pred_objects(truth)),
        _write_objects(root / "truth.jsonl", truth),
    )


def _fmt(v):
    return repr(float(v))


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


class TestAgainstRecordPath:
    """CSV and stdout bytes equal those of read_labels and the library
    functions, formatted row by row as the commands always have."""

    def test_eval(self, files, tmp_path, capsys):
        pred, truth = files
        csv = tmp_path / "eval.csv"
        code, out = _run(capsys, ["eval", "--input", str(pred), str(truth), "--output", str(csv)])
        assert code == 0
        report = mean_geodesic_error(read_labels(pred), read_labels(truth))
        want = "id,geodesic_rad\n" + "".join(
            f"{rec_id},{_fmt(dist)}\n" for rec_id, dist in report.per_record
        )
        assert csv.read_bytes() == want.encode("utf-8")
        assert out == (
            f"eval: n={len(report.per_record)} mean={report.mean:.12g} "
            f"median={report.median:.12g} max={report.max:.12g} (radians)\n"
        )
        assert report.max > 3.14 and min(d for _, d in report.per_record) == 0.0

    def test_stats(self, files, tmp_path, capsys):
        _, truth = files
        csv = tmp_path / "stats.csv"
        code, out = _run(capsys, ["stats", "--input", str(truth), "--output", str(csv)])
        assert code == 0
        stats = euler_range_stats([rec.rotation for rec in read_labels(truth)])
        want = "angle,min_deg,max_deg\n" + "".join(
            f"{name},{_fmt(lo)},{_fmt(hi)}\n"
            for name, (lo, hi) in (
                ("pitch", stats.pitch_deg), ("yaw", stats.yaw_deg), ("roll", stats.roll_deg)
            )
        )
        assert csv.read_bytes() == want.encode("utf-8")
        assert out == (
            f"stats: n={stats.count} "
            f"pitch [{stats.pitch_deg[0]:.6g}, {stats.pitch_deg[1]:.6g}] "
            f"yaw [{stats.yaw_deg[0]:.6g}, {stats.yaw_deg[1]:.6g}] "
            f"roll [{stats.roll_deg[0]:.6g}, {stats.roll_deg[1]:.6g}] deg\n"
        )

    def test_pca(self, files, tmp_path, capsys):
        _, truth = files
        csv = tmp_path / "pca.csv"
        code, out = _run(capsys, ["pca", "--input", str(truth), "--output", str(csv)])
        assert code == 0
        records = read_labels(truth)
        result = pca_project([np.asarray(rec.rotation).reshape(9).copy() for rec in records], k=3)
        want = "id,pc1,pc2,pc3\n" + "".join(
            f"{rec.id},{_fmt(row[0])},{_fmt(row[1])},{_fmt(row[2])}\n"
            for rec, row in zip(records, result.projected)
        )
        assert csv.read_bytes() == want.encode("utf-8")
        ev = result.explained_variance
        assert out == (
            f"pca: {len(records)} records, explained variance "
            f"{ev[0]:.6g} {ev[1]:.6g} {ev[2]:.6g}\n"
        )


@pytest.fixture
def built_records(monkeypatch):
    built = []
    init = PoseRecord.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0] if args else kwargs.get("id"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(PoseRecord, "__init__", counting)
    return built


def _assert_builds_no_records(built_records, files, tmp_path, monkeypatch, argv):
    # in-process, so that the spy sees every chunk
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    pred, truth = files
    names = {"PRED": str(pred), "TRUTH": str(truth)}
    argv = [names.get(a, a) for a in argv]
    out = argv.index("--output") + 1
    argv[out] = str(tmp_path / argv[out])
    assert main(argv) == 0
    assert built_records == []
    # the spy sees the records that the library path builds
    assert len(read_labels(truth)) == N
    assert len(built_records) == N


@pytest.mark.parametrize("command", ["eval", "stats", "pca"])
def test_read_only_commands_build_no_records(files, tmp_path, monkeypatch, capsys,
                                             built_records, command):
    inputs = ["PRED", "TRUTH"] if command == "eval" else ["TRUTH"]
    argv = [command, "--input", *inputs, "--output", "out.csv"]
    _assert_builds_no_records(built_records, files, tmp_path, monkeypatch, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["spiral", "--count", str(N), "--output", "out.jsonl"],
        ["augment", "--input", "TRUTH", "--output", "out.jsonl", "--multiplier", "2"],
        ["convert", "--input", "TRUTH", "--output", "out.jsonl", "--target", "matrix"],
        ["convert", "--input", "TRUTH", "--output", "out.jsonl", "--target", "euler_rpy"],
        ["draw", "--input", "TRUTH", "--output", "svg"],
    ],
    ids=["spiral", "augment", "convert-matrix", "convert-rpy", "draw"],
)
def test_writing_commands_build_no_records(files, tmp_path, monkeypatch, capsys,
                                           built_records, argv):
    _assert_builds_no_records(built_records, files, tmp_path, monkeypatch, argv)


class TestStreamedErrors:
    """A bad record past the first chunk: the output is never touched."""

    BAD = labels.CHUNK_RECORDS + 5

    @pytest.fixture
    def bad_file(self, tmp_path):
        objs = _truth_objects(labels.CHUNK_RECORDS + 10)
        objs[self.BAD]["rotation"] = [2.0 * v for v in objs[self.BAD]["rotation"]]
        path = _write_objects(tmp_path / "bad.jsonl", objs)
        with pytest.raises(labels.ValidationError) as info:
            record_from_dict(objs[self.BAD], where=f"{path}:{self.BAD + 1}")
        return path, str(info.value)

    @pytest.mark.parametrize(
        "argv",
        [
            ["convert", "--target", "matrix"],
            ["convert", "--target", "euler_pyr"],
            ["augment"],
            ["augment", "--mode", "flip", "--angle-deg", "12", "--multiplier", "3"],
        ],
    )
    def test_output_untouched(self, bad_file, tmp_path, capsys, argv):
        path, message = bad_file
        out = tmp_path / "out.jsonl"
        out.write_bytes(b"existing\n")
        assert main([*argv, "--input", str(path), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"rotkit: error: {message}\n"
        assert out.read_bytes() == b"existing\n"
        assert sorted(os.listdir(tmp_path)) == ["bad.jsonl", "out.jsonl"]

    def test_argument_errors_come_before_reading(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.jsonl")
        out = str(tmp_path / "out.jsonl")
        assert main(["augment", "--mode", "rotate", "--input", absent, "--output", out]) == 1
        assert "--angle-deg is required" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_convert_in_place(self, files, tmp_path):
        _, truth = files
        path = tmp_path / "labels.jsonl"
        path.write_bytes(truth.read_bytes())
        want = tmp_path / "want.jsonl"
        assert main(["convert", "--input", str(truth), "--output", str(want),
                     "--target", "euler_rpy"]) == 0
        assert main(["convert", "--input", str(path), "--output", str(path),
                     "--target", "euler_rpy"]) == 0
        assert path.read_bytes() == want.read_bytes()


class _FullDisk:
    """A text file that stores half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("command", ["eval", "stats", "pca"])
def test_failed_csv_write_keeps_the_old_report(files, tmp_path, monkeypatch, command):
    pred, truth = files
    csv = tmp_path / "report.csv"
    csv.write_bytes(b"old,report\n1,2\n")

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if "w" in mode or "x" in mode else fh

    # every file the command writes, in whichever module it is opened
    for module in ("rotkit.cli", "rotkit.labels"):
        monkeypatch.setattr(f"{module}.open", full_disk_open, raising=False)
    inputs = [str(pred), str(truth)] if command == "eval" else [str(truth)]
    assert main([command, "--input", *inputs, "--output", str(csv)]) == 2
    assert csv.read_bytes() == b"old,report\n1,2\n"
    assert os.listdir(tmp_path) == ["report.csv"]


class TestFlatMemory:
    """The streamed commands' tracemalloc peak does not grow with the file."""

    SMALL, LARGE = 4 * labels.CHUNK_RECORDS, 16 * labels.CHUNK_RECORDS

    @pytest.fixture(scope="class")
    def spirals(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("spirals")
        paths = {}
        for count in (self.SMALL, self.LARGE):
            paths[count] = root / f"spiral{count}.jsonl"
            assert main(["spiral", "--count", str(count), "--output", str(paths[count])]) == 0
        return paths

    @staticmethod
    def _peak(argv):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "argv",
        [["convert", "--target", "euler_pyr"], ["augment", "--multiplier", "2"]],
        ids=["convert", "augment"],
    )
    def test_peak_is_flat(self, spirals, tmp_path, capsys, argv):
        peaks = {
            count: self._peak([*argv, "--input", str(path), "--output", str(tmp_path / "out.jsonl")])
            for count, path in spirals.items()
        }
        assert peaks[self.LARGE] <= 1.25 * peaks[self.SMALL], peaks
