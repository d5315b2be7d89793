import dataclasses
import json
import math
import os
import random
import stat

import numpy as np
import pytest

from rotkit import (
    ParseError,
    PoseRecord,
    ValidationError,
    compose_pyr,
    random_rotation,
    read_labels,
    rot_z_left,
    write_labels,
)
from rotkit.augment import pose_stream
from rotkit.labels import (
    _PROVENANCE_DEPTH,
    _VIEWS,
    CHUNK_RECORDS,
    _provenance_error,
    record_from_dict,
    record_to_dict,
)


def _records(n, seed=0):
    rng = pose_stream(seed)
    return [PoseRecord(id=f"r{i:04d}", rotation=random_rotation(rng)) for i in range(n)]


class TestRoundTrip:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert read_labels(path) == []

    def test_identity_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_labels([PoseRecord(id="a", rotation=np.eye(3))], path)
        (rec,) = read_labels(path)
        assert rec.id == "a"
        np.testing.assert_array_equal(rec.rotation, np.eye(3))

    def test_rotations_bit_exact(self, tmp_path):
        path = tmp_path / "many.jsonl"
        records = _records(50)
        # include awkward values that need full decimal precision
        records.append(PoseRecord(id="ugly", rotation=compose_pyr((1 / 3, -2 / 7, 1e-9))))
        write_labels(records, path)
        back = read_labels(path)
        assert [r.id for r in back] == [r.id for r in records]
        for a, b in zip(records, back):
            np.testing.assert_array_equal(a.rotation, b.rotation)

    def test_all_fields_survive(self, tmp_path):
        path = tmp_path / "full.jsonl"
        rec = PoseRecord(
            id="x",
            rotation=np.eye(3),
            image_path="img/0001.jpg",
            euler_pyr_deg=(0.0, 0.0, 0.0),
            provenance=[{"kind": "rotate", "angle_deg": 3.0}],
        )
        write_labels([rec], path)
        (back,) = read_labels(path)
        assert back.image_path == "img/0001.jpg"
        assert back.euler_pyr_deg == (0.0, 0.0, 0.0)
        assert back.provenance == [{"kind": "rotate", "angle_deg": 3.0}]

    def test_write_is_deterministic(self, tmp_path):
        records = _records(10)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_labels(records, p1)
        write_labels(records, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_record_fields_follow_the_convention_table():
    # the readers build PoseRecords positionally, one view per convention
    names = [f.name for f in dataclasses.fields(PoseRecord)]
    assert names == ["id", "rotation", "image_path", *(f for f, _ in _VIEWS), "gimbal", "provenance"]


def _depth(value) -> int:
    # levels of lists and dicts in value, itself included; 0 for a scalar
    if type(value) is list:
        return 1 + max(map(_depth, value), default=0)
    if type(value) is dict:
        return 1 + max(map(_depth, value.values()), default=0)
    return 0


def _nest(rnd, depth):
    # a random list or dict nesting exactly depth >= 1 levels: a few
    # scalars, a shallow sibling or none, and one child depth - 1 levels deep
    items = [rnd.choice([0, 1.5, "s", None, True]) for _ in range(rnd.randrange(3))]
    if depth > 1:
        items += [_nest(rnd, rnd.randrange(1, min(depth, 4))) for _ in range(rnd.randrange(2))]
        items.insert(rnd.randrange(len(items) + 1), _nest(rnd, depth - 1))
    return items if rnd.random() < 0.5 else {f"k{i}": v for i, v in enumerate(items)}


class TestValidation:
    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "rotation": [1,0,0,0,1,0,0,0,1]}\n{oops\n', encoding="utf-8")
        with pytest.raises(ParseError, match=":2"):
            read_labels(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"id": "b", "rotation": [1' + "0" * 5000 + ", 0, 0, 0, 1, 0, 0, 0, 1]}",
             "Exceeds the limit (4300 digits) for integer string conversion"),
            ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
        ],
        ids=["long_integer", "deep_nesting"],
    )
    def test_undecodable_line_reports_line_number(self, tmp_path, line, message):
        # the decoder raises ValueError and RecursionError here, not
        # JSONDecodeError
        path = tmp_path / "bad.jsonl"
        good = '{"id": "a", "rotation": [1,0,0,0,1,0,0,0,1]}\n'
        path.write_text(good + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert str(err.value).startswith(f"{path}:2: invalid JSON: {message}")

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text('{"rotation": [1,0,0,0,1,0,0,0,1]}\n', encoding="utf-8")
        with pytest.raises(ParseError):
            read_labels(path)

    @pytest.mark.parametrize("rec_id", [None, True, False, 1.5, [1, 2], {"a": 1}])
    def test_id_of_another_type_rejected(self, tmp_path, rec_id):
        path = tmp_path / "id.jsonl"
        good = '{"id": "a", "rotation": [1,0,0,0,1,0,0,0,1]}\n'
        bad = json.dumps({"id": rec_id, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1]})
        path.write_text(good + bad + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_labels(path)
        assert str(err.value) == f"{path}:2: 'id' must be a string or an integer"

    def test_integer_id_read_as_decimal_string(self, tmp_path):
        path = tmp_path / "int.jsonl"
        path.write_text('{"id": -7, "rotation": [1,0,0,0,1,0,0,0,1]}\n', encoding="utf-8")
        (rec,) = read_labels(path)
        assert rec.id == "-7"

    def test_non_rotation_matrix_rejected(self, tmp_path):
        path = tmp_path / "notrot.jsonl"
        path.write_text('{"id": "a", "rotation": [2,0,0,0,2,0,0,0,2]}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="'a'"):
            read_labels(path)

    def test_inconsistent_euler_view_names_record(self, tmp_path):
        # euler off by one degree in yaw
        path = tmp_path / "inconsistent.jsonl"
        r = compose_pyr([math.radians(v) for v in (10.0, 20.0, 5.0)])
        flat = ",".join(repr(float(v)) for v in r.reshape(9))
        path.write_text(
            f'{{"id": "bad1", "rotation": [{flat}], "euler_pyr_deg": [10.0, 21.0, 5.0]}}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="bad1"):
            read_labels(path)

    def test_consistent_euler_view_accepted(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        deg = (10.0, 20.0, 5.0)
        r = compose_pyr([math.radians(v) for v in deg])
        write_labels([PoseRecord(id="ok", rotation=r, euler_pyr_deg=deg)], path)
        (rec,) = read_labels(path)
        assert rec.euler_pyr_deg == deg

    def test_gimbal_flag_relaxes_consistency(self, tmp_path):
        # a near-locked matrix whose stored euler view snaps yaw to -90:
        # rejected without the flag, accepted with it
        from rotkit import extract_pyr

        label = (-16.090911401458296, -89.9985818251308, -6.854511900533989)
        r = compose_pyr([math.radians(v) for v in label])
        sol = extract_pyr(r)
        snapped = tuple(math.degrees(v) for v in sol.primary)
        path = tmp_path / "gimbal.jsonl"
        write_labels(
            [PoseRecord(id="g", rotation=r, euler_pyr_deg=snapped, gimbal=True)], path
        )
        (rec,) = read_labels(path)
        assert rec.gimbal
        bad = tmp_path / "gimbal_noflag.jsonl"
        write_labels([PoseRecord(id="g", rotation=r, euler_pyr_deg=snapped)], bad)
        with pytest.raises(ValidationError, match="'g'"):
            read_labels(bad)

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, []])
    def test_gimbal_flag_must_be_a_bool(self, tmp_path, flag):
        # the view is 1e-5 rad off: inside GIMBAL_CONSISTENCY_TOL, which a
        # truthy string would otherwise select, outside the usual 1e-6.
        # The flag is checked before the views.
        angles = (0.3, 0.2, 0.1)
        r = compose_pyr(angles) @ rot_z_left(1e-5)
        obj = {"id": "g", "rotation": r.reshape(9).tolist(),
               "euler_pyr_deg": [math.degrees(v) for v in angles], "gimbal": flag}
        path = tmp_path / "flag.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="record 'g': gimbal must be true or false"):
            read_labels(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rotation", [True, False, False, False, True, False, False, False, True]),
            ("rotation", [1, 0, 0, 0, 1, 0, 0, 0, True]),
            ("euler_pyr_deg", [False, 0, 0]),
            ("euler_rpy_deg", [0.0, 0.0, False]),
        ],
    )
    def test_booleans_are_not_numbers(self, tmp_path, field, value):
        # the identity with zero views: only the booleans are wrong
        obj = dict({"id": "b", "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1]}, **{field: value})
        width = 9 if field == "rotation" else 3
        want = f"record 'b': {field} must be {width} finite JSON numbers"
        with pytest.raises(ValidationError, match=want):
            record_from_dict(obj)
        path = tmp_path / "bool.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=want):
            read_labels(path)

    @pytest.mark.parametrize("value", [{"a": 1}, 7, ["x.png"], True])
    def test_image_path_must_be_a_string(self, tmp_path, value):
        obj = {"id": "p", "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "image_path": value}
        want = "record 'p': image_path must be a string or null"
        with pytest.raises(ValidationError, match=want):
            record_from_dict(obj)
        path = tmp_path / "path.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=want):
            read_labels(path)
        assert record_from_dict(dict(obj, image_path=None)).image_path is None
        assert record_from_dict(dict(obj, image_path="a.png")).image_path == "a.png"

    @pytest.mark.parametrize("value", [False, 0, "", {}])
    def test_falsy_provenance_must_be_a_list(self, tmp_path, value):
        obj = {"id": "q", "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "provenance": value}
        want = "record 'q': provenance must be a list"
        with pytest.raises(ValidationError, match=want):
            record_from_dict(obj)
        path = tmp_path / "prov.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=want):
            read_labels(path)
        absent = {k: v for k, v in obj.items() if k != "provenance"}
        path.write_text(json.dumps(dict(obj, provenance=None)) + "\n" + json.dumps(absent) + "\n",
                        encoding="utf-8")
        assert [rec.provenance for rec in read_labels(path)] == [[], []]
        assert record_from_dict(dict(obj, provenance=None)).provenance == []
        assert record_from_dict(absent).provenance == []

    def test_too_deep_agrees_with_a_recursive_depth(self):
        # chunks of provenance values nesting around _PROVENANCE_DEPTH
        # levels, with lists and dicts mixed on every level, shallow
        # siblings and empty containers at the bottom
        rnd = random.Random(15)
        verdicts = []
        for _ in range(600):
            chunk = [
                [_nest(rnd, rnd.randrange(_PROVENANCE_DEPTH - 6, _PROVENANCE_DEPTH + 3))
                 for _ in range(rnd.randrange(3))]
                for _ in range(rnd.randrange(1, 4))
            ]
            want = any(_depth(value) > _PROVENANCE_DEPTH for value in chunk)
            assert (_provenance_error(chunk) is not None) == want
            verdicts.append(want)
        assert 150 < sum(verdicts) < 450

    def test_null_gimbal_flag_means_false(self, tmp_path):
        r = compose_pyr((0.3, 0.2, 0.1))
        path = tmp_path / "flag.jsonl"
        lines = [{"id": "n", "rotation": r.reshape(9).tolist(), "gimbal": None},
                 {"id": "f", "rotation": r.reshape(9).tolist(), "gimbal": False}]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
        assert [rec.gimbal for rec in read_labels(path)] == [False, False]

    def test_rpy_view_checked(self, tmp_path):
        path = tmp_path / "rpy.jsonl"
        r = compose_pyr((0.3, 0.2, 0.1))
        flat = ",".join(repr(float(v)) for v in r.reshape(9))
        path.write_text(
            f'{{"id": "c", "rotation": [{flat}], "euler_rpy_deg": [45.0, 0.0, 0.0]}}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="'c'"):
            read_labels(path)

    def test_file_tolerance_rotation_with_euler_view(self, tmp_path):
        # residual ~6e-8: inside the 1e-6 file tolerance, outside the
        # strict in-memory 1e-9 default; the consistency check must not
        # re-validate at the strict tolerance
        deg = (10.0, 20.0, 5.0)
        r = compose_pyr([math.radians(v) for v in deg]) * (1.0 + 3e-8)
        path = tmp_path / "noisy.jsonl"
        write_labels([PoseRecord(id="n", rotation=r, euler_pyr_deg=deg)], path)
        (rec,) = read_labels(path)
        assert rec.euler_pyr_deg == deg

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_labels(tmp_path / "nope.jsonl")

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "blanks.jsonl"
        path.write_text('\n{"id": "a", "rotation": [1,0,0,0,1,0,0,0,1]}\n\n', encoding="utf-8")
        assert len(read_labels(path)) == 1


class TestWrite:
    def test_matches_per_record_dumps(self, tmp_path):
        records = _records(CHUNK_RECORDS + 2, seed=3)
        records[1].rotation = records[1].rotation.reshape(9).tolist()  # ragged chunk
        records[2].image_path = "ünïcode/é.png"
        records[3].provenance = [{"kind": "rotate", "angle_deg": -0.0}]
        records[4].euler_pyr_deg = (1, 2.5, -3)
        path = tmp_path / "out.jsonl"
        write_labels(iter(records), path)
        want = "".join(json.dumps(record_to_dict(r), ensure_ascii=False) + "\n" for r in records)
        assert path.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("shapes", [[(8,)] * 9, [(8,)] + [(3, 3)] * 8])
    def test_rotation_of_another_size_raises(self, tmp_path, shapes):
        # nine rotations of 8 numbers hold 72 numbers, as many as 8 matrices
        records = _records(len(shapes))
        for rec, shape in zip(records, shapes):
            rec.rotation = np.zeros(shape)
        with pytest.raises(ValueError):
            write_labels(records, tmp_path / "out.jsonl")
        assert os.listdir(tmp_path) == []

    def test_failed_write_leaves_old_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_labels(_records(3), path)
        before = path.read_bytes()
        records = _records(CHUNK_RECORDS + 10, seed=1)
        records[CHUNK_RECORDS + 5].provenance = [{"kind": object()}]
        with pytest.raises(TypeError):
            write_labels(records, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_failed_write_creates_nothing(self, tmp_path):
        records = _records(2)
        records[1].provenance = [{1j: 2}]
        with pytest.raises(TypeError):
            write_labels(records, tmp_path / "out.jsonl")
        assert os.listdir(tmp_path) == []

    def test_normal_permissions(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        path = tmp_path / "out.jsonl"
        write_labels(_records(2), path)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask
        os.chmod(path, 0o600)
        write_labels(_records(3), path)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        assert len(read_labels(path)) == 3

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write read-only files")
    def test_read_only_file_is_refused(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_labels(_records(2), path)
        before = path.read_bytes()
        os.chmod(path, 0o444)
        with pytest.raises(PermissionError):
            write_labels(_records(3), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_symlink_is_followed(self, tmp_path):
        target = tmp_path / "target.jsonl"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        write_labels(_records(2), link)
        assert link.is_symlink()
        assert [r.id for r in read_labels(target)] == ["r0000", "r0001"]
        assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "target.jsonl"]

    def test_device_is_written_in_place(self):
        write_labels(_records(2), os.devnull)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_missing_directory_names_destination(self, tmp_path):
        path = tmp_path / "absent" / "out.jsonl"
        with pytest.raises(FileNotFoundError) as info:
            write_labels(_records(1), path)
        assert info.value.filename == str(path)
