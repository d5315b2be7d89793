"""JSON Lines pose label files.

One record per line:

    {"id": str | int, "image_path"?: str, "rotation": [9 floats, row-major],
     "euler_pyr_deg"?: [pitch, yaw, roll], "euler_rpy_deg"?: [roll, pitch, yaw],
     "gimbal"?: bool, "provenance"?: [op descriptors]}

An integer id is read as its decimal string; an id of any other type is
refused.  The matrix is the source of truth; Euler fields are advisory
views in degrees, checked against the matrix on read.  Floats are
serialized with shortest round-trip decimals, so write-then-read
reproduces rotations bit-exactly.

Files are read CHUNK_RECORDS lines at a time.  Each chunk is decoded line
by line and validated with batched kernels, and comes out as columns: its
ids, one (n, 3, 3) rotation stack, image paths, Euler views, gimbal flags
and provenance (_Chunk, from _read_chunk).  record_from_dict is the
per-record contract, the only source of error messages, and decides any
chunk that fails or sits near a tolerance.  read_labels builds PoseRecords
from the chunks.  _columns is the one gather of PoseRecords into a _Chunk,
used by the record-by-record reader and by write_labels, and one column
encoder (_encode_columns), which takes a chunk's fields, writes every
label file.

The CLI runs its chunks on the fork map (_map_chunks for a label file,
_map_ranges for spiral's poses): up to one os.fork worker per CPU, each
reading the file itself and working on every W-th chunk, with the results
taken back in file order and the first error in file order raised.  The
workers of `augment`, `convert` and `spiral` return encoded text, those of
`eval`, `stats`, `pca` and `draw` ids plus an (n, 3, 3) stack; only the
parent writes.  With one worker the same calls run in-process.
"""

import json
import math
import os
import pickle
import stat
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
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


def _numbers(value, what: str, rec_id: str) -> list:
    # value as a list of floats; booleans are not numbers, though float()
    # takes them
    try:
        numbers = [float(v) for v in value]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"record {rec_id!r}: bad {what}: {exc}") from None
    if bool in map(type, value):
        raise ValidationError(f"record {rec_id!r}: bad {what}: booleans are not numbers")
    return numbers


def _as_triple(value, what: str, rec_id: str) -> Tuple[float, float, float]:
    t = tuple(_numbers(value, what, rec_id))
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
# Types of a valid id, compared by type(): bool, a subclass of int, is refused.
_ID_TYPES = {str, int}


def _extras(obj: dict, rec_id: str) -> Tuple[Optional[str], list]:
    # The non-numeric fields, checked once rotation, gimbal flag and views
    # have passed: the image path (a string, or absent or null) and the
    # provenance (a list; absent, null or empty means []).
    image_path = obj.get("image_path")
    if image_path is not None and not isinstance(image_path, str):
        raise ValidationError(f"record {rec_id!r}: image_path must be a string or null")
    provenance = obj.get("provenance") or []
    if not isinstance(provenance, list):
        raise ValidationError(f"record {rec_id!r}: provenance must be a list")
    return image_path, provenance


def record_from_dict(obj: dict, where: str = "record") -> PoseRecord:
    """Validate one decoded JSON object into a PoseRecord."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object")
    if "id" not in obj or "rotation" not in obj:
        raise ParseError(f"{where}: 'id' and 'rotation' are required")
    if type(obj["id"]) not in _ID_TYPES:
        raise ParseError(f"{where}: 'id' must be a string or an integer")
    rec_id = str(obj["id"])

    flat = _numbers(obj["rotation"], "rotation", rec_id)
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

    image_path, provenance = _extras(obj, rec_id)
    # positional: keywords cost more
    return PoseRecord(rec_id, rotation, image_path, *views, bool(gimbal), provenance)


def record_to_dict(rec: PoseRecord) -> dict:
    return _record_obj(
        rec.id,
        [float(v) for v in np.asarray(rec.rotation).reshape(9)],
        rec.image_path,
        [getattr(rec, field_name) for field_name, _ in _VIEWS],
        rec.gimbal,
        rec.provenance,
    )


def _record_obj(rec_id, rotation: list, image_path, views, gimbal, provenance) -> dict:
    # One record's JSON object from its fields, the rotation already
    # flattened to 9 floats and the views in _VIEWS order.
    obj = {"id": rec_id}
    if image_path is not None:
        obj["image_path"] = image_path
    obj["rotation"] = rotation
    for (field_name, _), view in zip(_VIEWS, views):
        if view is not None:
            obj[field_name] = [float(v) for v in view]
    if gimbal:
        obj["gimbal"] = True
    if provenance:
        obj["provenance"] = provenance
    return obj


def _encode_columns(
    ids, rotations, image_paths=None, views=None, gimbal=None, provenance=None
) -> str:
    """JSON Lines text of records given as a chunk's columns (_Chunk's
    fields, in its order), one line per id.

    rotations is an (n, 3, 3) stack and views one column per _VIEWS entry;
    a column left out is None (or False) for every record.  Each line is
    json.dumps(record_to_dict(rec), ensure_ascii=False).  The one write
    loop: write_labels gathers records into chunks (_columns), and the CLI
    passes its chunks' columns straight through.
    """
    encode = JSONEncoder(ensure_ascii=False).encode
    return "".join(
        encode(_record_obj(*fields)) + "\n"
        for fields in zip(
            ids,
            rotations.reshape(-1, 9).tolist(),
            repeat(None) if image_paths is None else image_paths,
            repeat(()) if views is None else zip(*views),
            repeat(False) if gimbal is None else gimbal,
            repeat(None) if provenance is None else provenance,
        )
    )


# Element types of a row _float_rows takes in bulk: JSON numbers.  Booleans
# (which numpy would read as 0 and 1) go to record_from_dict and are refused.
_NUMBER_TYPES = {float, int}


def _float_rows(rows: list, width: int) -> Optional[np.ndarray]:
    # rows as an (n, width) float array when every row is `width` finite
    # JSON numbers, else None.  Strings, nulls, booleans and ragged rows are
    # left to record_from_dict, which owns the error messages.
    try:
        if not set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES:
            return None
        a = np.array(rows)
    except (TypeError, ValueError):  # a row that is not a list, ragged rows
        return None
    if a.dtype.kind not in "iuf" or a.shape != (len(rows), width):
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
    entry, with each record's Euler view as a tuple, or None.  The columns
    are PoseRecord's fields.
    """

    ids: List[str]
    rotations: np.ndarray
    image_paths: list
    views: tuple
    gimbal: List[bool]
    provenance: list


def _chunk_batched(objs: list) -> Optional[_Chunk]:
    """The chunk record_from_dict would accept from objs, or None.

    None means some object may break the contract or sits at a tolerance
    edge; the caller then re-validates one record at a time.
    """
    for obj in objs:
        if not isinstance(obj, dict) or "id" not in obj or "rotation" not in obj:
            return None
    ids = [obj["id"] for obj in objs]
    flags = [obj.get("gimbal") for obj in objs]
    if not (set(map(type, ids)) <= _ID_TYPES and set(map(type, flags)) <= _FLAG_TYPES):
        return None
    flat = _float_rows([obj["rotation"] for obj in objs], 9)
    if flat is None:
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

    ids = list(map(str, ids))
    # a bad image path or provenance raises here, as it would line by
    # line: every record's numeric checks have passed
    image_paths, provenance = zip(*map(_extras, objs, ids))
    return _Chunk(ids, rotations, list(image_paths), tuple(views), list(map(bool, flags)),
                  list(provenance))


def _columns(records: list) -> _Chunk:
    """PoseRecords as a chunk's columns.  Each rotation may be (3, 3) or
    flat; one of another size raises ValueError, as in record_to_dict."""
    try:
        rotations = np.array([rec.rotation for rec in records], dtype=float)
        rotations = rotations.reshape(len(records), 3, 3)
    except ValueError:  # ragged shapes: reshape record by record
        rotations = np.array([np.reshape(rec.rotation, (3, 3)) for rec in records], dtype=float)
    return _Chunk(
        [rec.id for rec in records],
        rotations,
        [rec.image_path for rec in records],
        tuple([getattr(rec, field_name) for rec in records] for field_name, _ in _VIEWS),
        [rec.gimbal for rec in records],
        [rec.provenance for rec in records],
    )


def _chunk_one_by_one(path, lines, objs) -> _Chunk:
    return _columns([
        record_from_dict(obj, where=f"{path}:{lineno}")
        for (lineno, _), obj in zip(lines, objs)
    ])


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


def _line_chunks(path) -> Iterator[list]:
    """A label file's non-blank lines as (lineno, line) pairs, CHUNK_RECORDS at a time."""
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            lines.append((lineno, line))
            if len(lines) == CHUNK_RECORDS:
                yield lines
                lines = []
    if lines:
        yield lines


def _read_chunks(path) -> Iterator[_Chunk]:
    """Validated chunks of a label file, one CHUNK_RECORDS chunk at a time.

    Raises the errors of read_labels, in the same order; a chunk's errors
    surface before it is yielded, so only earlier chunks have been seen.
    """
    for lines in _line_chunks(path):
        yield _read_chunk(path, lines)


def _workers(chunks: int) -> int:
    # One worker per CPU this process may run on, at most one per chunk;
    # 1 (in-process) where os.fork or the affinity mask is missing.
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), chunks))


def _send(out, message) -> None:
    body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    out.write(len(body).to_bytes(8, "little") + body)
    out.flush()


def _receive(reader):
    # The next message of a worker, or None if it died before sending it whole.
    head = reader.read(8)
    size = int.from_bytes(head, "little")
    body = reader.read(size) if len(head) == 8 else b""
    return pickle.loads(body) if len(head) == 8 and len(body) == size else None


def _serve(fd: int, groups, work, w: int, workers: int) -> None:
    # A worker's life: it walks all of groups() and, for each group k with
    # k % workers == w, sends ("ok", work(k, group)); then ("end", None), or
    # ("err", exc) for the first exception, raised by work or while reading
    # group k.  It never returns, and runs no exit handlers.
    status = 1
    try:
        with os.fdopen(fd, "wb") as out:
            k = 0
            try:
                for group in groups():
                    if k % workers == w:
                        _send(out, ("ok", work(k, group)))
                    k += 1
                message = ("end", None)
            except BaseException as exc:  # noqa: BLE001 - the parent raises it
                message = ("err", exc)
            _send(out, message)
        status = 0
    finally:
        os._exit(status)


def _fork_map(groups, work, workers: int) -> Iterator:
    """work(k, group) for each k, group in enumerate(groups()), in order.

    With workers > 1 the calls run in that many processes made with
    os.fork: worker w walks groups() itself and calls work on the groups
    with k % workers == w, so nothing is sent to it, and a result comes
    back through a pipe, pickled.  The parent yields the results in order
    and raises an exception where work or groups() raised it, so the first
    error in group order wins, with its type and message.  A worker that
    dies before reporting a group fails the map with ChildProcessError.
    However the map ends, every worker is killed and reaped.  With one
    worker the same calls run in-process.

    os.fork, not multiprocessing: a fork starts no interpreter and imports
    nothing, and work may be any closure.  The CLI runs no Python thread,
    and OpenBLAS stops its thread pool at a fork by its own atfork handler.
    A worker never returns into the caller's code: it leaves by os._exit,
    so it flushes no inherited buffer and runs no exit handler.
    """
    if workers == 1:
        for k, group in enumerate(groups()):
            yield work(k, group)
        return
    pids, readers = [], []
    try:
        for w in range(workers):
            r, fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker
                try:
                    os.close(r)
                    for reader in readers:
                        reader.close()
                    _serve(fd, groups, work, w, workers)
                finally:
                    os._exit(1)
            os.close(fd)
            pids.append(pid)
            readers.append(os.fdopen(r, "rb"))
        k = 0
        while True:
            w = k % workers
            message = _receive(readers[w])
            if message is None:
                code = os.waitstatus_to_exitcode(os.waitpid(pids[w], 0)[1])
                pids[w] = None
                raise ChildProcessError(f"worker {w} exited ({code}) before reporting chunk {k}")
            tag, payload = message
            if tag == "err":
                raise payload
            if tag == "end":
                break
            yield payload
            k += 1
        for w, pid in enumerate(pids):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids[w] = None
            if code:
                raise ChildProcessError(f"worker {w} exited ({code}) after its last chunk")
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            if pid is not None:
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)


def _line_count(path) -> int:
    # Lines in a regular file, counted by newline; 1 for anything else (a
    # pipe, a device), which is opened once, by the reader, and read
    # in-process.
    if not stat.S_ISREG(os.stat(path).st_mode):
        return 1
    with open(path, "rb") as fh:
        return 1 + sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def _map_chunks(path, work) -> Iterator:
    """work(start, chunk) for each validated chunk of a label file, in file
    order, where start is the index of the chunk's first record; on the
    fork map (_fork_map), one worker per CPU, at most one per chunk.

    The errors and their order are those of _read_chunks.
    """
    chunks = -(-_line_count(path) // CHUNK_RECORDS)
    return _fork_map(
        lambda: _line_chunks(path),
        lambda k, lines: work(k * CHUNK_RECORDS, _read_chunk(path, lines)),
        _workers(chunks),
    )


def _map_ranges(count: int, work) -> Iterator:
    """work(start, stop) for each CHUNK_RECORDS slice of range(count), in
    order, on the fork map as _map_chunks."""
    step = CHUNK_RECORDS
    return _fork_map(
        lambda: range(0, count, step),
        lambda k, start: work(start, min(count, start + step)),
        _workers(-(-count // step)),
    )


def _chunk_records(chunk: _Chunk) -> List[PoseRecord]:
    return [
        PoseRecord(rec_id, rotation, image_path, *views, gimbal, provenance)
        for rec_id, rotation, image_path, gimbal, provenance, *views in zip(
            chunk.ids, chunk.rotations, chunk.image_paths, chunk.gimbal, chunk.provenance,
            *chunk.views,
        )
    ]


def _read_stack(path) -> Tuple[List[str], np.ndarray]:
    """A label file's ids and its rotations as one (n, 3, 3) array, read
    on the fork map."""

    def columns(start, chunk):
        return chunk.ids, chunk.rotations

    ids, stacks = [], []
    for chunk_ids, rotations in _map_chunks(path, columns):
        ids += chunk_ids
        stacks.append(rotations)
    return ids, np.concatenate(stacks) if stacks else np.empty((0, 3, 3))


def read_labels(path) -> List[PoseRecord]:
    """Read a JSON Lines label file; blank lines are ignored.

    Raises ParseError with the line number for malformed lines and
    ValidationError naming the record id for contract violations, the
    same errors, in the same order, as record_from_dict line by line.
    Each record's rotation is a row view of its chunk's (n, 3, 3) array.
    """
    return [rec for chunk in _read_chunks(path) for rec in _chunk_records(chunk)]


def _write_records(fh, records) -> None:
    it = iter(records)
    while chunk := list(islice(it, CHUNK_RECORDS)):
        fh.write(_encode_columns(*_columns(chunk)))


def write_labels(records, path) -> None:
    """Write records as JSON Lines (UTF-8, LF), deterministically.

    Each line is json.dumps(record_to_dict(rec), ensure_ascii=False).
    Records are gathered into chunks (_columns), encoded (_encode_columns)
    and written CHUNK_RECORDS at a time, so `records` may be a generator that
    builds them chunk by chunk.  The file is written as _write_file writes
    it: if anything raises, an existing file at `path` is left untouched.
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
