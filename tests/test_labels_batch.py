"""The chunked, batched read_labels against record_from_dict line by line."""

import json
import math

import numpy as np
import pytest

from rotkit import (
    ParseError,
    ValidationError,
    compose_pyr,
    compose_rpy,
    extract_pyr,
    extract_rpy,
    random_rotation,
    read_labels,
    rot_z_left,
    write_labels,
)
from rotkit import labels
from rotkit.augment import pose_stream
from rotkit.labels import EULER_CONSISTENCY_TOL, GIMBAL_CONSISTENCY_TOL, record_from_dict

CHUNK = 16


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(labels, "CHUNK_RECORDS", CHUNK)


def _scalar_read(path):
    """Decode and validate one line at a time: the per-record contract."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
            out.append(record_from_dict(obj, where=f"{path}:{lineno}"))
    return out


def _chunk_read(path):
    """The chunk reader behind eval, stats and pca: ids and rotation bytes,
    with no PoseRecord assembled."""
    return [
        (rec_id, rotation.tobytes())
        for chunk in labels._read_chunks(path)
        for rec_id, rotation in zip(chunk.ids, chunk.rotations)
    ]


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # noqa: BLE001 - the type is the point
        return type(exc), str(exc)


def _deg(angles):
    return [math.degrees(v) for v in angles]


def _objects(n, seed=0):
    """Valid records: plain, with either Euler view, Gimbal band, near the tolerances."""
    rng = pose_stream(seed)
    objs = []
    for i in range(n):
        kind = i % 6
        obj = {"id": i if kind == 0 else f"r{i:05d}"}
        if kind == 1:
            obj["image_path"] = f"img/{i}.jpg"
        if kind == 4:
            # yaw within the Gimbal band: the stored view is the snapped one
            yaw = math.copysign(math.pi / 2 - rng.uniform(0.0, 2e-4), rng.uniform(-1, 1))
            r = compose_pyr((rng.uniform(-1, 1), yaw, rng.uniform(-1, 1)))
            sol = extract_pyr(r)
            obj["euler_pyr_deg"] = _deg(sol.primary)
            obj["gimbal"] = sol.kind != "regular"
        elif kind == 5:
            # views just inside their tolerance: a roll offset of 0.99 tol
            gimbal = i % 12 == 5
            tol = GIMBAL_CONSISTENCY_TOL if gimbal else EULER_CONSISTENCY_TOL
            view = (rng.uniform(-1, 1), rng.uniform(-1.5, 1.5), rng.uniform(-1, 1))
            r = compose_pyr(view) @ rot_z_left(0.99 * tol)
            obj["euler_pyr_deg"] = _deg(view)
            obj["gimbal"] = gimbal
        else:
            r = random_rotation(rng)
            if kind == 2:
                obj["euler_pyr_deg"] = _deg(extract_pyr(r).primary)
            if kind == 3:
                obj["euler_rpy_deg"] = _deg(extract_rpy(r).value)
                obj["provenance"] = [{"kind": "rotate", "angle_deg": float(i)}]
        obj["rotation"] = r.reshape(9).tolist()
        objs.append(obj)
    return objs


def _write(path, items):
    lines = [item if isinstance(item, str) else json.dumps(item) for item in items]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _assert_same_records(batched, scalar):
    assert len(batched) == len(scalar)
    for b, s in zip(batched, scalar):
        assert b.id == s.id
        assert b.rotation.shape == (3, 3)
        assert b.rotation.tobytes() == s.rotation.tobytes()
        assert b.euler_pyr_deg == s.euler_pyr_deg
        assert b.euler_rpy_deg == s.euler_rpy_deg
        assert b.gimbal is s.gimbal
        assert b.provenance == s.provenance
        assert b.image_path == s.image_path


def _rotation(obj):
    return np.array(obj["rotation"]).reshape(3, 3)


_IDENTITY = np.eye(3).reshape(9).tolist()


def _identity(obj, **view):
    """obj as the identity rotation with only the given Euler view."""
    kept = {k: v for k, v in obj.items() if not k.startswith("euler_")}
    return dict(kept, rotation=_IDENTITY, gimbal=False, **view)


# One contract violation each, applied to a valid decoded object.
DEFECTS = {
    "bad_json": lambda obj: '{"id": "x", "rotation": [1, 0',
    "not_object": lambda obj: "[1, 2, 3]",
    "missing_id": lambda obj: {k: v for k, v in obj.items() if k != "id"},
    "missing_rotation": lambda obj: {k: v for k, v in obj.items() if k != "rotation"},
    "eight_numbers": lambda obj: dict(obj, rotation=obj["rotation"][:8]),
    "nan": lambda obj: dict(obj, rotation=obj["rotation"][:4] + [math.nan] + obj["rotation"][5:]),
    "string_entry": lambda obj: dict(obj, rotation=["x"] + obj["rotation"][1:]),
    "not_so3": lambda obj: dict(obj, rotation=[2.0 * v for v in obj["rotation"]]),
    "euler_off": lambda obj: dict(
        obj, euler_pyr_deg=[v + 0.1 for v in _deg(extract_pyr(_rotation(obj)).primary)]),
    "rpy_off": lambda obj: dict(
        obj, euler_rpy_deg=[v + 0.1 for v in _deg(extract_rpy(_rotation(obj)).value)]),
    "euler_not_triple": lambda obj: dict(obj, euler_pyr_deg=[0.0, 0.0]),
    "gimbal_past_tol": lambda obj: dict(
        obj,
        rotation=(compose_pyr((0.3, 1.2, -0.4)) @ rot_z_left(1.01 * GIMBAL_CONSISTENCY_TOL))
        .reshape(9).tolist(),
        euler_pyr_deg=_deg((0.3, 1.2, -0.4)),
        gimbal=True,
    ),
    "provenance_not_list": lambda obj: dict(obj, provenance={"kind": "rotate"}),
    "gimbal_not_bool": lambda obj: dict(obj, gimbal="false"),
    # the identity and its zero views, written with JSON booleans
    "bool_rotation": lambda obj: dict(obj, rotation=[v == 1.0 for v in _IDENTITY]),
    "bool_pyr_view": lambda obj: _identity(obj, euler_pyr_deg=[False, 0.0, 0.0]),
    "bool_rpy_view": lambda obj: _identity(obj, euler_rpy_deg=[0.0, 0.0, False]),
    "image_path_object": lambda obj: dict(obj, image_path={"a": 1}),
    "image_path_number": lambda obj: dict(obj, image_path=7),
    "int_past_float": lambda obj: dict(obj, rotation=[10**400] + obj["rotation"][1:]),
    "id_null": lambda obj: dict(obj, id=None),
    "id_bool": lambda obj: dict(obj, id=True),
    "id_float": lambda obj: dict(obj, id=1.5),
    "id_list": lambda obj: dict(obj, id=[1, 2]),
}


class TestValidFiles:
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, 3 * CHUNK + 5])
    def test_matches_record_from_dict(self, tmp_path, small_chunks, n):
        path = _write(tmp_path / "ok.jsonl", _objects(n, seed=n))
        _assert_same_records(read_labels(path), _scalar_read(path))

    def test_default_chunk_size(self, tmp_path):
        n = labels.CHUNK_RECORDS + 7
        path = _write(tmp_path / "ok.jsonl", _objects(n, seed=3))
        _assert_same_records(read_labels(path), _scalar_read(path))

    def test_blank_lines_and_line_numbers(self, tmp_path, small_chunks):
        items = _objects(2 * CHUNK, seed=4)
        lines = []
        for obj in items:
            lines += [json.dumps(obj), "", "   "]
        path = _write(tmp_path / "blanks.jsonl", lines)
        _assert_same_records(read_labels(path), _scalar_read(path))
        # a defect after the blanks still reports its own line number
        lines[3 * (CHUNK + 2)] = "{oops"
        _write(path, lines)
        assert _outcome(read_labels, path) == _outcome(_scalar_read, path)
        assert f":{3 * (CHUNK + 2) + 1}:" in _outcome(read_labels, path)[1]

    def test_chunks_encode_as_write_labels(self, tmp_path):
        # the column encoder takes the reader's chunks as they come
        path = _write(tmp_path / "ok.jsonl", _objects(labels.CHUNK_RECORDS + 7, seed=12))
        chunks = list(labels._read_chunks(path))
        assert len(chunks) == 2
        text = "".join(labels._encode_columns(*chunk) for chunk in chunks)
        for field in ("image_path", "euler_pyr_deg", "euler_rpy_deg", "gimbal", "provenance"):
            assert f'"{field}": ' in text
        out = tmp_path / "out.jsonl"
        write_labels(read_labels(path), out)
        assert text.encode("utf-8") == out.read_bytes()

    def test_rotations_are_rows_of_one_array(self, tmp_path, small_chunks):
        path = _write(tmp_path / "ok.jsonl", _objects(CHUNK, seed=5))
        records = read_labels(path)
        assert all(rec.rotation.base is records[0].rotation.base for rec in records)


class TestDefects:
    read = staticmethod(read_labels)

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    @pytest.mark.parametrize("where", [0, CHUNK - 1, CHUNK, 3 * CHUNK + 4])
    def test_same_error_as_scalar_path(self, tmp_path, small_chunks, defect, where):
        items = _objects(3 * CHUNK + 5, seed=where)
        items[where] = DEFECTS[defect](items[where])
        path = _write(tmp_path / "bad.jsonl", items)
        got = _outcome(self.read, path)
        assert isinstance(got, tuple), f"{defect} at record {where} was accepted"
        assert got == _outcome(_scalar_read, path)

    @pytest.mark.parametrize("where", [0, CHUNK - 2, CHUNK - 1])
    def test_earlier_bad_record_wins_over_later_bad_json(self, tmp_path, small_chunks, where):
        items = _objects(2 * CHUNK, seed=7)
        items[where] = DEFECTS["not_so3"](items[where])
        items[where + 1] = "{oops"
        path = _write(tmp_path / "two.jsonl", items)
        got = _outcome(self.read, path)
        assert got == _outcome(_scalar_read, path)
        assert got[1].startswith(f"record {str(items[where]['id'])!r}:")

    def test_default_chunk_boundary(self, tmp_path):
        n = labels.CHUNK_RECORDS + 2
        for where in (labels.CHUNK_RECORDS - 1, labels.CHUNK_RECORDS):
            items = _objects(n, seed=where)
            items[where] = DEFECTS["euler_off"](items[where])
            path = _write(tmp_path / "bad.jsonl", items)
            assert _outcome(self.read, path) == _outcome(_scalar_read, path)


class TestDefectsChunkReader(TestDefects):
    """Every defect case through the chunk reader alone."""

    read = staticmethod(_chunk_read)


class TestToleranceEdges:
    read = staticmethod(read_labels)

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []

        def counting(obj, where="record"):
            calls.append(where)
            return record_from_dict(obj, where)

        monkeypatch.setattr(labels, "record_from_dict", counting)
        return calls

    def test_valid_chunks_skip_the_scalar_path(self, tmp_path, small_chunks, spy):
        path = _write(tmp_path / "ok.jsonl", _objects(2 * CHUNK, seed=8))
        self.read(path)
        assert spy == []

    @pytest.mark.parametrize("factor", [1.0 - 1e-9, 1.0 + 1e-9])
    def test_view_at_its_tolerance_is_decided_record_by_record(
        self, tmp_path, small_chunks, spy, factor
    ):
        # the batched distance of such a view may round to either side, so
        # its chunk goes through record_from_dict
        items = _objects(2 * CHUNK, seed=9)
        view = (0.2, -0.7, 1.1)
        rotation = compose_pyr(view) @ rot_z_left(factor * EULER_CONSISTENCY_TOL)
        items[CHUNK + 3] = {
            "id": "edge",
            "rotation": rotation.reshape(9).tolist(),
            "euler_pyr_deg": _deg(view),
        }
        path = _write(tmp_path / "edge.jsonl", items)
        got = _outcome(self.read, path)
        assert f"{path}:{CHUNK + 4}" in spy
        spy.clear()
        expected = _outcome(_scalar_read, path)
        if factor < 1.0 and self.read is _chunk_read:
            assert got == [(rec.id, rec.rotation.tobytes()) for rec in expected]
        elif factor < 1.0:
            _assert_same_records(got, expected)
        else:
            assert isinstance(got, tuple) and got == expected


class TestToleranceEdgesChunkReader(TestToleranceEdges):
    """The tolerance-edge cases through the chunk reader alone."""

    read = staticmethod(_chunk_read)


class TestSlightlyScaledMatrices:
    """Matrices c*R that pass the file's SO(3) check, c = 1 +/- 3e-7.

    The half-angle geodesic measures them about 3.7e-7 rad from R.  The
    arccos form clamped 3c >= 3 to 0, so for c > 1 it accepted views up to
    about 9.5e-4 rad off; for c < 1 it measured 9.5e-4 rad for an exact
    view and rejected it.
    """

    VIEW = (0.4, -0.9, 0.25)

    def _obj(self, scale, offset):
        rotation = scale * (compose_pyr(self.VIEW) @ rot_z_left(offset))
        return {
            "id": "scaled",
            "rotation": rotation.reshape(9).tolist(),
            "euler_pyr_deg": _deg(self.VIEW),
        }

    @pytest.mark.parametrize("scale", [1.0 + 3e-7, 1.0 - 3e-7])
    def test_exact_view_is_accepted(self, tmp_path, small_chunks, scale):
        obj = self._obj(scale, 0.0)
        rec = record_from_dict(obj)
        assert rec.euler_pyr_deg == tuple(obj["euler_pyr_deg"])
        items = _objects(CHUNK, seed=10)
        items[5] = obj
        path = _write(tmp_path / "scaled.jsonl", items)
        _assert_same_records(read_labels(path), _scalar_read(path))

    @pytest.mark.parametrize("scale", [1.0 + 3e-7, 1.0 - 3e-7])
    def test_view_off_by_5e_4_rad_is_rejected(self, tmp_path, small_chunks, scale):
        obj = self._obj(scale, 5e-4)
        with pytest.raises(ValidationError, match="euler_pyr_deg disagrees"):
            record_from_dict(obj)
        items = _objects(CHUNK, seed=11)
        items[5] = obj
        path = _write(tmp_path / "scaled.jsonl", items)
        got = _outcome(read_labels, path)
        assert got == _outcome(_scalar_read, path)
        assert got[0] is ValidationError and "geodesic 5.000e-04 rad" in got[1]
