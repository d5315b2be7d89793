"""The chunked read_labels against record_from_dict line by line.

record_from_dict is the reader's one validator run on a single record, so
comparing the two checks the chunking: that a valid chunk is read as its
records are one by one, that a failed chunk raises the error of its first
bad line, and the bytes that come out.  The messages themselves, and the
order in which the rules run, are pinned as literals in ERRORS.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            except (ValueError, RecursionError) as exc:
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise ParseError(f"{path}:{lineno}: invalid JSON: {msg}") from None
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


_ZERO_VIEWS = {"euler_pyr_deg": [0.0, 0.0, 0.0], "euler_rpy_deg": [0.0, 0.0, 0.0]}


def _nested(depth):
    """A list nested `depth` levels deep, itself included."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


# One contract violation each, applied to a valid decoded object.
DEFECTS = {
    "bad_json": lambda obj: '{"id": "x", "rotation": [1, 0',
    # lines on which the decoder raises ValueError and RecursionError
    "int_too_long": lambda obj: '{"id": "x", "rotation": [1' + "0" * 5000 + "]}",
    "nested_too_deep": lambda obj: "[" * 100000 + "]" * 100000,
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
    # falsy values that are not lists: only absent or null reads as []
    "false_provenance": lambda obj: dict(obj, provenance=False),
    "empty_object_provenance": lambda obj: dict(obj, provenance={}),
    "provenance_too_deep": lambda obj: dict(
        obj, provenance=[{"kind": "rotate", "ops": _nested(labels._PROVENANCE_DEPTH - 1)}]),
    "gimbal_not_bool": lambda obj: dict(obj, gimbal="false"),
    # the identity and its zero views, written with JSON booleans
    "bool_rotation": lambda obj: dict(obj, rotation=[v == 1.0 for v in _IDENTITY]),
    "bool_pyr_view": lambda obj: _identity(obj, euler_pyr_deg=[False, 0.0, 0.0]),
    "bool_rpy_view": lambda obj: _identity(obj, euler_rpy_deg=[0.0, 0.0, False]),
    # the identity and its zero views, written with JSON strings
    "string_rotation": lambda obj: dict(_identity(obj, **_ZERO_VIEWS), rotation="100010001"),
    "numeric_string_rotation": lambda obj: dict(
        _identity(obj, **_ZERO_VIEWS), rotation=[str(int(v)) for v in _IDENTITY]),
    "string_pyr_view": lambda obj: _identity(obj, euler_pyr_deg="000"),
    "image_path_object": lambda obj: dict(obj, image_path={"a": 1}),
    "image_path_number": lambda obj: dict(obj, image_path=7),
    "int_past_float": lambda obj: dict(obj, rotation=[10**400] + obj["rotation"][1:]),
    "id_null": lambda obj: dict(obj, id=None),
    "id_bool": lambda obj: dict(obj, id=True),
    "id_float": lambda obj: dict(obj, id=1.5),
    "id_list": lambda obj: dict(obj, id=[1, 2]),
    # lone surrogates, which json.dumps writes as \ud800 escapes and no
    # UTF-8 file can hold
    "id_surrogate": lambda obj: dict(obj, id="a\ud800"),
    "image_path_surrogate": lambda obj: dict(obj, image_path="img/\udfff.jpg"),
    "provenance_value_surrogate": lambda obj: dict(obj, provenance=[{"kind": "x\ud800"}]),
    "provenance_key_surrogate": lambda obj: dict(obj, provenance=[{"kind": "rotate"},
                                                                  {"\udfffkind": "flip"}]),
}


def test_provenance_depth_limit(tmp_path):
    # a provenance nested one level past the limit is refused on read, so
    # that every record read can be written back
    limit = labels._PROVENANCE_DEPTH
    obj = {"id": "a", "rotation": _IDENTITY}
    at_limit = dict(obj, provenance=[{"ops": _nested(limit - 2)}])
    assert record_from_dict(at_limit).provenance == at_limit["provenance"]
    past = dict(obj, id="b", provenance=[{"ops": [_nested(limit - 2)]}])
    message = f"record 'b': provenance nests deeper than {limit} levels"
    with pytest.raises(ValidationError) as err:
        record_from_dict(past)
    assert str(err.value) == message
    ok = read_labels(_write(tmp_path / "ok.jsonl", [at_limit, at_limit]))
    assert [rec.provenance for rec in ok] == [at_limit["provenance"]] * 2
    path = _write(tmp_path / "deep.jsonl", [at_limit, past])
    assert _outcome(read_labels, path) == (ValidationError, message)
    assert _outcome(_chunk_read, path) == (ValidationError, message)


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


# The reader's error for each defect case, and for records that break two
# rules at once (which pins the order of the rules), on record 24, line 25,
# in the middle of the second chunk.  "<path>" stands for the file's path;
# "<json>" for the decoder's own text, which Python words differently from
# version to version.
ERRORS = {
    "bad_json": (ParseError, "<path>:25: invalid JSON: Expecting ',' delimiter"),
    "bool_pyr_view": (ValidationError, "record '24': euler_pyr_deg must be 3 finite JSON numbers"),
    "bool_rotation": (ValidationError, "record '24': rotation must be 9 finite JSON numbers"),
    "bool_rpy_view": (ValidationError, "record '24': euler_rpy_deg must be 3 finite JSON numbers"),
    "eight_numbers": (ValidationError, "record '24': rotation must be 9 finite JSON numbers"),
    "empty_object_provenance": (ValidationError, "record '24': provenance must be a list"),
    "euler_not_triple": (
        ValidationError, "record '24': euler_pyr_deg must be 3 finite JSON numbers"),
    "euler_off": (ValidationError, "record '24': euler_pyr_deg disagrees with rotation "
                                   "(geodesic 2.999e-03 rad > 1e-06)"),
    "false_provenance": (ValidationError, "record '24': provenance must be a list"),
    "gimbal_not_bool": (ValidationError, "record '24': gimbal must be true or false"),
    "gimbal_past_tol": (ValidationError, "record '24': euler_pyr_deg disagrees with rotation "
                                         "(geodesic 2.020e-04 rad > 0.0002)"),
    "id_bool": (ParseError, "<path>:25: 'id' must be a string or an integer"),
    "id_float": (ParseError, "<path>:25: 'id' must be a string or an integer"),
    "id_list": (ParseError, "<path>:25: 'id' must be a string or an integer"),
    "id_null": (ParseError, "<path>:25: 'id' must be a string or an integer"),
    "id_surrogate": (
        ValidationError, "record 'a\\ud800': id holds a lone surrogate, which UTF-8 cannot encode"),
    "image_path_number": (ValidationError, "record '24': image_path must be a string or null"),
    "image_path_object": (ValidationError, "record '24': image_path must be a string or null"),
    "image_path_surrogate": (
        ValidationError,
        "record '24': image_path holds a lone surrogate, which UTF-8 cannot encode"),
    "int_past_float": (ValidationError, "record '24': rotation must be 9 finite JSON numbers"),
    "int_too_long": (ParseError, "<path>:25: invalid JSON: <json>"),
    "missing_id": (ParseError, "<path>:25: 'id' and 'rotation' are required"),
    "missing_rotation": (ParseError, "<path>:25: 'id' and 'rotation' are required"),
    "nan": (ValidationError, "record '24': rotation must be 9 finite JSON numbers"),
    "nested_too_deep": (ParseError, "<path>:25: invalid JSON: <json>"),
    "not_object": (ParseError, "<path>:25: expected a JSON object"),
    "not_so3": (ValidationError, "record '24': rotation fails the SO(3) check at 1e-06"),
    "numeric_string_rotation": (
        ValidationError, "record '24': rotation must be 9 finite JSON numbers"),
    "provenance_key_surrogate": (
        ValidationError,
        "record '24': provenance holds a lone surrogate, which UTF-8 cannot encode"),
    "provenance_not_list": (ValidationError, "record '24': provenance must be a list"),
    "provenance_too_deep": (
        ValidationError, "record '24': provenance nests deeper than 64 levels"),
    "provenance_value_surrogate": (
        ValidationError,
        "record '24': provenance holds a lone surrogate, which UTF-8 cannot encode"),
    "rpy_off": (ValidationError, "record '24': euler_rpy_deg disagrees with rotation "
                                 "(geodesic 3.299e-03 rad > 1e-06)"),
    "string_entry": (ValidationError, "record '24': rotation must be 9 finite JSON numbers"),
    "string_pyr_view": (
        ValidationError, "record '24': euler_pyr_deg must be 3 finite JSON numbers"),
    "string_rotation": (ValidationError, "record '24': rotation must be 9 finite JSON numbers"),
    # the id's type before the rotation's numbers
    "id_bool+nan": (ParseError, "<path>:25: 'id' must be a string or an integer"),
    # SO(3) before the gimbal flag
    "not_so3+gimbal_not_bool": (
        ValidationError, "record '24': rotation fails the SO(3) check at 1e-06"),
    # the views before the provenance
    "euler_off+provenance_not_list": (
        ValidationError, "record '24': euler_pyr_deg disagrees with rotation "
                         "(geodesic 2.999e-03 rad > 1e-06)"),
    # the first view's numbers before the second view's geodesic
    "euler_not_triple+rpy_off": (
        ValidationError, "record '24': euler_pyr_deg must be 3 finite JSON numbers"),
}


def test_errors_cover_every_defect():
    assert set(DEFECTS) <= set(ERRORS)


@pytest.mark.parametrize("read", [read_labels, _chunk_read], ids=["read_labels", "chunks"])
@pytest.mark.parametrize("case", sorted(ERRORS))
def test_error_text(tmp_path, small_chunks, case, read):
    where = CHUNK + CHUNK // 2
    items = _objects(3 * CHUNK + 5, seed=0)
    for defect in case.split("+"):
        items[where] = DEFECTS[defect](items[where])
    path = _write(tmp_path / "bad.jsonl", items)
    kind, message = ERRORS[case]
    if "<json>" in message:
        try:
            json.loads(items[where])
        except (ValueError, RecursionError) as exc:
            message = message.replace("<json>", str(exc))
    assert _outcome(read, path) == (kind, message.replace("<path>", str(path)))


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
        # the batched distance equals record_from_dict's bit for bit, so a
        # view just inside its tolerance is accepted in bulk, and one just
        # outside sends its chunk to record_from_dict, which refuses it:
        # either way the verdict is the record-by-record one
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
        assert (f"{path}:{CHUNK + 4}" in spy) == (factor > 1.0)
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


# Any JSON value: scalars, and lists and objects of them; lists of 3 and of
# 9 scalars are drawn on their own, so that views and rotations of the right
# length, in numbers or not, come up often.
_SCALARS = st.none() | st.booleans() | st.integers(-1, 1) | st.floats() | st.text(max_size=3)
_JSON_VALUES = (
    st.recursive(
        _SCALARS,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=2), inner, max_size=2),
        max_leaves=8,
    )
    | st.lists(_SCALARS, min_size=3, max_size=3)
    | st.lists(_SCALARS, min_size=9, max_size=9)
)
_FIELDS = ("rotation", "euler_pyr_deg", "euler_rpy_deg", "gimbal", "image_path", "provenance")
_VALID = _objects(4, seed=13)


def _respelled(numbers):
    """A valid list of numbers written otherwise: as strings entry by entry
    or all in one, as booleans, or as an object's keys."""
    return st.sampled_from([
        [str(int(v)) for v in numbers],
        [repr(float(v)) for v in numbers],
        "".join(str(int(v)) for v in numbers),
        [bool(v) for v in numbers],
        dict.fromkeys(map(str, numbers), 0),
    ])


def _chunk_outcome(read):
    try:
        chunk = read()
    except Exception as exc:  # noqa: BLE001 - the type is the point
        return type(exc), str(exc)
    return chunk.rotations.tobytes(), labels._encode_columns(*chunk)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(_FIELDS), data=st.data(), where=st.integers(0, 4))
def test_routes_agree_on_any_field_value(field, data, where):
    # the identity with its zero views, one field replaced, among valid records
    obj = _identity({"id": "h", "image_path": "h.png", "provenance": [{"kind": "flip"}]},
                    **_ZERO_VIEWS)
    values = _JSON_VALUES
    if field in ("rotation", "euler_pyr_deg", "euler_rpy_deg"):
        values |= _respelled(obj[field])
    obj[field] = data.draw(values)
    items = _VALID[:where] + [obj] + _VALID[where:]
    lines = [(lineno, json.dumps(item)) for lineno, item in enumerate(items, start=1)]
    objs = [json.loads(line) for _, line in lines]
    one_by_one = _chunk_outcome(lambda: labels._chunk_one_by_one("f", lines, objs))
    assert _chunk_outcome(lambda: labels._read_chunk("f", lines)) == one_by_one
    # the batched rules accept exactly the chunks record_from_dict accepts
    batched = labels._chunk_batched(objs)
    if isinstance(one_by_one[0], type):
        assert batched is None
    else:
        assert (batched.rotations.tobytes(), labels._encode_columns(*batched)) == one_by_one
