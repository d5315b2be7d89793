"""JSON Lines pose label files.

One record per line:

    {"id": str, "image_path"?: str, "rotation": [9 floats, row-major],
     "euler_pyr_deg"?: [pitch, yaw, roll], "euler_rpy_deg"?: [roll, pitch, yaw],
     "gimbal"?: bool, "provenance"?: [op descriptors]}

The matrix is the source of truth; Euler fields are advisory views in
degrees, checked against the matrix on read.  Floats are serialized with
shortest round-trip decimals, so write-then-read reproduces rotations
bit-exactly.

Files are read CHUNK_RECORDS lines at a time.  Each chunk is decoded line
by line and validated with batched kernels, and comes out as its ids plus
one (n, 3, 3) rotation stack (_read_chunks); record_from_dict is the
per-record contract, the only source of error messages, and decides any
chunk that fails or sits near a tolerance.  PoseRecords are built from a
chunk only when asked for: read_labels builds them all, the CLI only where
it writes records back out.  So `augment` and `convert` hold one chunk at a
time, and `eval`, `stats` and `pca` keep only the ids and one (n, 3, 3)
array per file (_read_stack).
"""

import json
import math
import os
import stat
from dataclasses import dataclass, field
from itertools import islice
from json import JSONEncoder
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .core import (
    _BATCH_MARGIN,
    _CONVENTIONS,
    _all_rotations,
    _compose,
    _compose_rows,
    _geodesic_rows,
    geodesic_distance,
    is_rotation,
)
from .euler import GIMBAL_EPS

# File-level SO(3) and Euler-consistency tolerance.  Looser than the
# in-memory default: labels may have been produced by other tooling.
FILE_ORTHO_TOL = 1e-6
EULER_CONSISTENCY_TOL = 1e-6
# Gimbal-flagged records store the canonical representative, whose yaw is
# snapped to +/-90 deg; allow the snap distance.
GIMBAL_CONSISTENCY_TOL = 2.0 * GIMBAL_EPS
# Records decoded and validated together by the reader, and transformed
# and encoded together by write_labels and the CLI.  A read chunk holds its
# decoded JSON objects (about 2 KB each) at once; larger chunks run no
# faster.
CHUNK_RECORDS = 1024
# The Euler view fields, one per convention and in its order, with the
# convention's name: ("euler_pyr_deg", "pyr"), ("euler_rpy_deg", "rpy").
# PoseRecord lists its view fields in the same order.
_VIEWS = tuple((f"euler_{name}_deg", name) for name in _CONVENTIONS)


class ValidationError(ValueError):
    """A record violates the label-file contract."""


class ParseError(ValidationError):
    """A line is not valid JSON or lacks required fields."""


@dataclass
class PoseRecord:
    """One labeled sample: id, rotation, optional views and provenance."""

    id: str
    rotation: np.ndarray
    image_path: Optional[str] = None
    euler_pyr_deg: Optional[Tuple[float, float, float]] = None
    euler_rpy_deg: Optional[Tuple[float, float, float]] = None
    gimbal: bool = False
    provenance: list = field(default_factory=list)


def _as_triple(value, what: str, rec_id: str) -> Tuple[float, float, float]:
    try:
        t = tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"record {rec_id!r}: bad {what}: {exc}") from None
    if len(t) != 3 or not all(math.isfinite(v) for v in t):
        raise ValidationError(f"record {rec_id!r}: {what} must be 3 finite numbers")
    return t


def _check_euler_view(rec_id: str, rotation, matrix, tol: float, what: str) -> None:
    dist = geodesic_distance(matrix, rotation, tol=FILE_ORTHO_TOL)
    if dist > tol:
        raise ValidationError(
            f"record {rec_id!r}: {what} disagrees with rotation "
            f"(geodesic {dist:.3e} rad > {tol:g})"
        )


# Types of a valid gimbal flag: JSON true or false; absent or null means false.
_FLAG_TYPES = {bool, type(None)}


def _check_provenance(obj: dict, rec_id: str) -> list:
    provenance = obj.get("provenance") or []
    if not isinstance(provenance, list):
        raise ValidationError(f"record {rec_id!r}: provenance must be a list")
    return provenance


def _image_path(obj: dict) -> Optional[str]:
    image_path = obj.get("image_path")
    return None if image_path is None else str(image_path)


def _finish_record(obj: dict, rec_id: str, rotation, views) -> PoseRecord:
    # The non-numeric fields, once rotation, gimbal flag and views (one
    # per _VIEWS entry) have passed.  Positional: keywords cost more.
    provenance = _check_provenance(obj, rec_id)
    return PoseRecord(
        rec_id, rotation, _image_path(obj), *views, bool(obj.get("gimbal")), provenance
    )


def record_from_dict(obj: dict, where: str = "record") -> PoseRecord:
    """Validate one decoded JSON object into a PoseRecord."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object")
    if "id" not in obj or "rotation" not in obj:
        raise ParseError(f"{where}: 'id' and 'rotation' are required")
    rec_id = str(obj["id"])

    raw = obj["rotation"]
    try:
        flat = [float(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"record {rec_id!r}: bad rotation: {exc}") from None
    if len(flat) != 9 or not all(math.isfinite(v) for v in flat):
        raise ValidationError(f"record {rec_id!r}: rotation must be 9 finite numbers")
    rotation = np.array(flat).reshape(3, 3)
    if not is_rotation(rotation, FILE_ORTHO_TOL):
        raise ValidationError(
            f"record {rec_id!r}: rotation fails the SO(3) check at {FILE_ORTHO_TOL:g}"
        )

    gimbal = obj.get("gimbal")
    if type(gimbal) not in _FLAG_TYPES:
        raise ValidationError(f"record {rec_id!r}: gimbal must be true or false")
    tol = GIMBAL_CONSISTENCY_TOL if gimbal else EULER_CONSISTENCY_TOL

    views = []
    for field_name, convention in _VIEWS:
        view = None
        if obj.get(field_name) is not None:
            view = _as_triple(obj[field_name], field_name, rec_id)
            composed = _compose([math.radians(v) for v in view], convention)
            _check_euler_view(rec_id, rotation, composed, tol, field_name)
        views.append(view)

    return _finish_record(obj, rec_id, rotation, views)


def record_to_dict(rec: PoseRecord) -> dict:
    return _record_obj(rec, [float(v) for v in np.asarray(rec.rotation).reshape(9)])


def _record_obj(rec: PoseRecord, rotation: list) -> dict:
    # record_to_dict with the rotation already flattened to 9 floats.
    obj = {"id": rec.id}
    if rec.image_path is not None:
        obj["image_path"] = rec.image_path
    obj["rotation"] = rotation
    for field_name, _ in _VIEWS:
        view = getattr(rec, field_name)
        if view is not None:
            obj[field_name] = [float(v) for v in view]
    if rec.gimbal:
        obj["gimbal"] = True
    if rec.provenance:
        obj["provenance"] = rec.provenance
    return obj


def _float_rows(rows: list, width: int) -> Optional[np.ndarray]:
    # rows as an (n, width) float array when every row is `width` finite
    # JSON numbers, else None.  Strings, nulls and ragged rows are left to
    # record_from_dict, which owns the error messages.
    try:
        a = np.array(rows)
    except ValueError:  # ragged rows
        return None
    if a.dtype.kind not in "biuf" or a.shape != (len(rows), width):
        return None
    a = a.astype(float, copy=False)
    return a if np.isfinite(a).all() else None


# A chunk is accepted in bulk only when every residual and view distance is
# at least _BATCH_MARGIN of its tolerance inside it; otherwise
# record_from_dict decides, and the verdicts are the scalar ones exactly.


def _chunk_views(column: list, rotations, convention: str, tols) -> Optional[list]:
    # One convention's Euler views (degrees, a JSON value or None per
    # record) against their rows of rotations, as in _check_euler_view:
    # geodesic from the composed view to the matrix.  Returns column with
    # each view as a tuple, or None when some view is malformed or too far
    # off.
    idx = [i for i, view in enumerate(column) if view is not None]
    if not idx:
        return column
    views = _float_rows([column[i] for i in idx], 3)
    if views is None:
        return None
    dist = _geodesic_rows(_compose_rows(np.radians(views), convention), rotations[idx])
    if not (dist <= tols[idx] * (1.0 - _BATCH_MARGIN)).all():
        return None
    for i, view in zip(idx, map(tuple, views.tolist())):
        column[i] = view
    return column


class _Chunk(NamedTuple):
    """Up to CHUNK_RECORDS validated records, as columns.

    rotations is one (n, 3, 3) stack; views holds one list per _VIEWS
    entry, with each record's Euler view as a tuple, or None.
    """

    objs: list  # the decoded JSON objects
    ids: List[str]
    rotations: np.ndarray
    views: tuple


def _chunk_batched(objs: list) -> Optional[_Chunk]:
    """The chunk record_from_dict would accept from objs, or None.

    None means some object may break the contract or sits at a tolerance
    edge; the caller then re-validates one record at a time.
    """
    for obj in objs:
        if not isinstance(obj, dict) or "id" not in obj or "rotation" not in obj:
            return None
    flags = [obj.get("gimbal") for obj in objs]
    flat = _float_rows([obj["rotation"] for obj in objs], 9)
    if flat is None or not set(map(type, flags)) <= _FLAG_TYPES:
        return None
    rotations = flat.reshape(-1, 3, 3)
    if not _all_rotations(rotations, FILE_ORTHO_TOL):
        return None
    tols = np.array([GIMBAL_CONSISTENCY_TOL if flag else EULER_CONSISTENCY_TOL for flag in flags])
    views = []
    for field_name, convention in _VIEWS:
        column = _chunk_views([obj.get(field_name) for obj in objs], rotations, convention, tols)
        if column is None:
            return None
        views.append(column)

    ids = [str(obj["id"]) for obj in objs]
    # a non-list provenance raises here, as it would line by line: every
    # record's numeric checks have passed
    for obj, rec_id in zip(objs, ids):
        _check_provenance(obj, rec_id)
    return _Chunk(objs, ids, rotations, tuple(views))


def _chunk_one_by_one(path, lines, objs) -> _Chunk:
    records = [
        record_from_dict(obj, where=f"{path}:{lineno}")
        for (lineno, _), obj in zip(lines, objs)
    ]
    return _Chunk(
        objs,
        [rec.id for rec in records],
        np.array([rec.rotation for rec in records]).reshape(-1, 3, 3),
        tuple([getattr(rec, field_name) for rec in records] for field_name, _ in _VIEWS),
    )


def _read_chunk(path, lines) -> _Chunk:
    # lines: (lineno, text) pairs.  Errors surface in file order: a record
    # that breaks the contract raises before a later line's bad JSON.
    objs = []
    for lineno, line in lines:
        try:
            objs.append(json.loads(line))
        except json.JSONDecodeError as exc:
            _chunk_one_by_one(path, lines, objs)
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
    chunk = _chunk_batched(objs)
    return _chunk_one_by_one(path, lines, objs) if chunk is None else chunk


def _read_chunks(path) -> Iterator[_Chunk]:
    """Validated chunks of a label file, one CHUNK_RECORDS chunk at a time.

    Raises the errors of read_labels, in the same order; a chunk's errors
    surface before it is yielded, so only earlier chunks have been seen.
    """
    chunk = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            chunk.append((lineno, line))
            if len(chunk) == CHUNK_RECORDS:
                yield _read_chunk(path, chunk)
                chunk = []
    if chunk:
        yield _read_chunk(path, chunk)


def _chunk_records(chunk: _Chunk) -> List[PoseRecord]:
    return [
        _finish_record(obj, rec_id, rotation, views)
        for obj, rec_id, rotation, views in zip(
            chunk.objs, chunk.ids, chunk.rotations, zip(*chunk.views)
        )
    ]


def _read_stack(path) -> Tuple[List[str], np.ndarray]:
    """A label file's ids and its rotations as one (n, 3, 3) array."""
    ids, stacks = [], []
    for chunk in _read_chunks(path):
        ids += chunk.ids
        stacks.append(chunk.rotations)
    return ids, np.concatenate(stacks) if stacks else np.empty((0, 3, 3))


def read_labels(path) -> List[PoseRecord]:
    """Read a JSON Lines label file; blank lines are ignored.

    Raises ParseError with the line number for malformed lines and
    ValidationError naming the record id for contract violations, the
    same errors, in the same order, as record_from_dict line by line.
    Each record's rotation is a row view of its chunk's (n, 3, 3) array.
    """
    return [rec for chunk in _read_chunks(path) for rec in _chunk_records(chunk)]


def _flat_rotations(records: list) -> list:
    # Each record's rotation as 9 floats, with one tolist() for the chunk.
    try:
        return np.array([rec.rotation for rec in records], dtype=float).reshape(
            len(records), 9
        ).tolist()
    except ValueError:  # ragged shapes: record_to_dict's route, record by record
        return [np.asarray(rec.rotation, dtype=float).reshape(9).tolist() for rec in records]


def _write_records(fh, records) -> None:
    encode = JSONEncoder(ensure_ascii=False).encode
    it = iter(records)
    while chunk := list(islice(it, CHUNK_RECORDS)):
        rows = _flat_rotations(chunk)
        fh.write("".join(encode(_record_obj(rec, row)) + "\n" for rec, row in zip(chunk, rows)))


def write_labels(records, path) -> None:
    """Write records as JSON Lines (UTF-8, LF), deterministically.

    Each line is json.dumps(record_to_dict(rec), ensure_ascii=False).
    Records are encoded and written CHUNK_RECORDS at a time, so `records`
    may be a generator that builds them chunk by chunk.  The file is
    written as _write_file writes it: if anything raises, an existing file
    at `path` is left untouched.
    """
    _write_file(path, lambda fh: _write_records(fh, records))


def _write_file(path, write) -> None:
    """Call write(fh) on a UTF-8, LF text file that then becomes `path`.

    A regular or new file is written under a temporary name in its
    directory and moved into place at the end: if anything raises, an
    existing file at `path` is left untouched and the temporary file is
    removed.  A replaced file keeps its mode but not its owner or hard
    links, and one that cannot be written still raises PermissionError; a
    new file gets 0666 less the umask.  Symlinks are followed, so a link
    keeps pointing at the new file.  A path that exists but is not a
    regular file (a device such as /dev/stdout, a pipe) is written in
    place.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    mode = None
    try:
        if os.path.exists(target):
            mode = stat.S_IMODE(os.stat(target).st_mode)
            open(target, "a").close()  # fail where open(path, "w") would
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        exc.filename = path  # name the file the caller asked for
        raise
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, mode)
            write(fh)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise
