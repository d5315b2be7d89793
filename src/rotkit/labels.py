"""JSON Lines pose label files.

One record per line:

    {"id": str | int, "image_path"?: str, "rotation": [9 floats, row-major],
     "euler_pyr_deg"?: [pitch, yaw, roll], "euler_rpy_deg"?: [roll, pitch, yaw],
     "gimbal"?: bool, "provenance"?: [op descriptors]}

An integer id is read as its decimal string; an id of any other type is
refused; a field the format does not name is dropped.  The matrix is the
source of truth, read at core.FILE_ORTHO_TOL; Euler fields are advisory
views in degrees, checked against it on read.  Once its record has passed
every check, a matrix that fails ORTHO_TOL is replaced by its nearest
rotation (core._repair), so all the reader returns passes ORTHO_TOL.
Floats are serialized with shortest round-trip decimals, so write-then-read
reproduces rotations that pass ORTHO_TOL bit-exactly.

Numbers are JSON numbers: a string, object or boolean in the rotation or
a view is refused, never parsed.  The contract is one rule set, _validate,
which runs each rule on the columns of n decoded objects; record_from_dict
is _validate on one record.

Files are read CHUNK_RECORDS lines at a time.  Each chunk is decoded line
by line, validated at once and comes out as columns: its ids, one
(n, 3, 3) rotation stack, image paths, Euler views, gimbal flags and
provenance (_Chunk, from _read_chunk).  A chunk that fails is validated
again one record at a time (_validate on each), which raises the first bad
record's error in file order.  read_labels builds PoseRecords from the
chunks.  _columns is the one gather of PoseRecords into a _Chunk, used by
write_labels and evaluate, and one column encoder (_encode_columns),
which takes a chunk's fields, writes every label file.

The CLI runs its chunks on the fork map: one os.fork worker per CPU,
each walking the input's lines itself and working on every W-th chunk,
with the results taken back in file order and the first error in file
order raised.  The workers of `augment` and `convert` each open and
stream the label file (_map_chunks) and, like those of `spiral`
(_map_ranges), return encoded text.  `eval`, `stats`, `pca` and `draw`
read their input once, whole (_read_stack): its bytes key a
content-addressed cache, which serves ids, image paths and an (n, 3, 3)
stack again without a fork or a JSON decode, and on a miss the workers
parse those same bytes.  Only the parent writes.  With one worker the
same calls run in-process.
"""

import io
import json
import os
import pickle
import stat
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from json import JSONDecoder, JSONEncoder
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .core import (
    _CONVENTIONS,
    FILE_ORTHO_TOL,
    _compose_rows,
    _geodesic_rows,
    _repair,
    _so3_gaps,
)
from .euler import GIMBAL_EPS

# File-level Euler-consistency tolerance, as loose as the SO(3) check at
# core.FILE_ORTHO_TOL: labels may have been produced by other tooling.
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


# Types of a valid gimbal flag: JSON true or false; absent or null means false.
_FLAG_TYPES = {bool, type(None)}
# Types of a valid id, compared by type(): bool, a subclass of int, is refused.
_ID_TYPES = {str, int}
# Levels a provenance may nest, itself included: the JSON encoder recurses
# once per level, and a deeper one could not be written back.
_PROVENANCE_DEPTH = 64
_NESTED = {list, dict}


def _provenance_error(values: list) -> Optional[str]:
    # The rule for the lists and dicts among values: they nest at most
    # _PROVENANCE_DEPTH levels, and no string or key in them holds a lone
    # surrogate.  Each pass steps one level down: the lists' items and the
    # dicts' values.  Returns the message of the first rule broken, or None.
    seen = []
    for _ in range(_PROVENANCE_DEPTH):
        seen += values
        values = [v for x in values if type(x) in _NESTED
                  for v in (x.values() if type(x) is dict else x)]
    if _NESTED & set(map(type, values)):
        return f"provenance nests deeper than {_PROVENANCE_DEPTH} levels"
    seen += values
    keys = chain.from_iterable([x for x in seen if type(x) is dict])
    if not _utf8(chain([x for x in seen if type(x) is str], keys)):
        return "provenance holds a lone surrogate, which UTF-8 cannot encode"
    return None


def _provenance(obj: dict):
    # A record's provenance as read: [] when absent or null, else the value
    # itself, which _extras_error then checks (false, 0, "" and {} fail).
    value = obj.get("provenance")
    return [] if value is None else value


def _utf8(strings) -> bool:
    # True unless a string holds a lone surrogate (which JSON's "\ud800"
    # escape decodes to): UTF-8 cannot encode one, so no file could hold it.
    try:
        "".join(strings).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _extras_error(ids: list, image_paths: list, provenance: list) -> Optional[str]:
    # The rule for the non-numeric fields, on the columns of one record or
    # of a chunk: each id (as a string) UTF-8 text, each image path UTF-8
    # text or None, each provenance (as _provenance reads it) a list that
    # _provenance_error accepts.  Returns the first rule's message, or None.
    if not _utf8(ids):
        return "id holds a lone surrogate, which UTF-8 cannot encode"
    if set(map(type, image_paths)) - {str, type(None)}:
        return "image_path must be a string or null"
    if not _utf8(filter(None, image_paths)):
        return "image_path holds a lone surrogate, which UTF-8 cannot encode"
    if set(map(type, provenance)) - {list}:
        return "provenance must be a list"
    return _provenance_error(provenance)


# Element types of a row of numbers: JSON numbers.  Booleans (which float()
# and numpy would read as 1 and 0) and strings (which they would parse) are
# refused.
_NUMBER_TYPES = {float, int}


def _float_rows(rows: list, width: int) -> Optional[np.ndarray]:
    # rows as an (n, width) float array when every row is `width` finite
    # JSON numbers, else None: the one rule for the rotation and the Euler
    # views, of one record or of a chunk.
    try:
        if not set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES:
            return None
        a = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):  # a non-list, ragged rows, huge ints
        return None
    if a.shape != (len(rows), width):
        return None
    return a if np.isfinite(a).all() else None


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


def _validate(objs: list, where: str) -> _Chunk:
    """The columns of objs, decoded JSON objects that each keep the label
    contract; else the first rule's ParseError or ValidationError.

    Each rule runs on the columns of all of objs before the next rule runs.
    A message names where and the id of objs[0], so it is exact when objs
    holds one record: the reader validates a chunk at once, and a chunk
    that fails one record at a time.  A row that passes FILE_ORTHO_TOL but
    not ORTHO_TOL is repaired (_repair) once every rule has held.
    """
    if not all([isinstance(obj, dict) for obj in objs]):
        raise ParseError(f"{where}: expected a JSON object")
    if not all(["id" in obj and "rotation" in obj for obj in objs]):
        raise ParseError(f"{where}: 'id' and 'rotation' are required")
    ids = [obj["id"] for obj in objs]
    if not set(map(type, ids)) <= _ID_TYPES:
        raise ParseError(f"{where}: 'id' must be a string or an integer")
    ids = list(map(str, ids))
    name = f"record {ids[0]!r}"

    flat = _float_rows([obj["rotation"] for obj in objs], 9)
    if flat is None:
        raise ValidationError(f"{name}: rotation must be 9 finite JSON numbers")
    gaps = np.maximum.reduce(_so3_gaps(flat.T))  # each row's worst
    if not (gaps <= FILE_ORTHO_TOL).all():
        raise ValidationError(f"{name}: rotation fails the SO(3) check at {FILE_ORTHO_TOL:g}")
    flags = [obj.get("gimbal") for obj in objs]
    if not set(map(type, flags)) <= _FLAG_TYPES:
        raise ValidationError(f"{name}: gimbal must be true or false")

    # each view against its row: geodesic from the composed view to the matrix
    rotations = flat.reshape(-1, 3, 3)
    tols = np.array([GIMBAL_CONSISTENCY_TOL if flag else EULER_CONSISTENCY_TOL for flag in flags])
    views = []
    for field_name, convention in _VIEWS:
        column = [obj.get(field_name) for obj in objs]
        idx = [i for i, view in enumerate(column) if view is not None]
        if idx:
            rows = _float_rows([column[i] for i in idx], 3)
            if rows is None:
                raise ValidationError(f"{name}: {field_name} must be 3 finite JSON numbers")
            dist = _geodesic_rows(_compose_rows(np.radians(rows), convention), rotations[idx])
            off = dist > tols[idx]
            if off.any():
                k = int(np.argmax(off))
                raise ValidationError(f"{name}: {field_name} disagrees with rotation "
                                      f"(geodesic {dist[k]:.3e} rad > {tols[idx[k]]:g})")
            for i, view in zip(idx, map(tuple, rows.tolist())):
                column[i] = view
        views.append(column)

    image_paths, provenance = [obj.get("image_path") for obj in objs], list(map(_provenance, objs))
    error = _extras_error(ids, image_paths, provenance)
    if error:
        raise ValidationError(f"{name}: {error}")
    _repair(rotations, gaps)
    return _Chunk(ids, rotations, image_paths, tuple(views), list(map(bool, flags)), provenance)


def _records(chunk: _Chunk) -> Iterator[PoseRecord]:
    # positional, _Chunk's columns in PoseRecord's order with the views spread
    return map(PoseRecord, chunk.ids, chunk.rotations, chunk.image_paths, *chunk.views,
               chunk.gimbal, chunk.provenance)


def record_from_dict(obj: dict, where: str = "record") -> PoseRecord:
    """Validate one decoded JSON object into a PoseRecord."""
    return next(_records(_validate([obj], where)))


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


def _read_chunk(path, lines) -> _Chunk:
    # lines: (lineno, text) pairs.  Errors surface in file order: a record
    # that breaks the contract raises before a later line's bad JSON, so the
    # records before bad JSON are validated first, as a chunk and, if that
    # fails, one at a time, which raises the first bad record's error.
    objs, bad_json = [], None
    for lineno, line in lines:
        try:
            objs.append(json.loads(line))
        # besides JSONDecodeError, the decoder raises ValueError for an
        # integer of more than sys.get_int_max_str_digits() digits and
        # RecursionError for arrays or objects nested too deep
        except (ValueError, RecursionError) as exc:
            msg = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            bad_json = ParseError(f"{path}:{lineno}: invalid JSON: {msg}")
            break
    try:
        chunk = _validate(objs, "record") if objs else None
    except ValidationError:  # ParseError too
        for (lineno, _), obj in zip(lines, objs):
            _validate([obj], f"{path}:{lineno}")
        raise
    if bad_json is not None:
        raise bad_json
    return chunk


def _line_chunks(fh) -> Iterator[list]:
    """The non-blank lines of fh, an open text stream of a label file, as
    (lineno, line) pairs, CHUNK_RECORDS at a time; fh is closed at the end."""
    lines = []
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            lines.append((lineno, line))
            if len(lines) == CHUNK_RECORDS:
                yield lines
                lines = []
    if lines:
        yield lines


def _workers() -> int:
    # One worker per CPU this process may run on, even past the chunk count;
    # 1 (in-process) where os.fork or the affinity mask is missing.
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


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


def _map_chunks(path, work) -> Iterator:
    """work(start, chunk) for each validated chunk of a label file, in file
    order, where start is the index of the chunk's first record; on the
    fork map (_fork_map), one worker per CPU, each opening and streaming
    the file so that memory stays flat, or in-process for anything but a
    regular file (a pipe or a device, which is opened once).

    The errors and their order are those of read_labels.
    """
    regular = stat.S_ISREG(os.stat(path).st_mode)
    return _fork_map(
        lambda: _line_chunks(open(path, "r", encoding="utf-8")),
        lambda k, lines: work(k * CHUNK_RECORDS, _read_chunk(path, lines)),
        _workers() if regular else 1,
    )


def _map_ranges(count: int, work) -> Iterator:
    """work(start, stop) for each CHUNK_RECORDS slice of range(count), in
    order, on the fork map as _map_chunks."""
    step = CHUNK_RECORDS
    return _fork_map(
        lambda: range(0, count, step),
        lambda k, start: work(start, min(count, start + step)),
        _workers(),
    )


def _read_stack(path) -> Tuple[List[str], list, np.ndarray]:
    """A label file's ids, its image paths and its rotations as one
    read-only, C-contiguous (n, 3, 3) float64 array.

    The input, a file or a pipe, is read once, whole: its bytes are looked
    up in the stack cache (_cache_entry), and on a miss the fork map's
    workers parse those same bytes, so the entry then stored holds what
    its key's bytes parse to.  The parent holds the bytes until they are
    parsed.  A failed read raises before anything is stored.  A hit
    returns a view of the entry's bytes and writes nothing; a miss's
    stack is read-only too, so callers see no difference.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    entry = _cache_entry(data)
    hit = None if entry is None else _load_entry(entry)
    if hit is not None:
        return hit

    columns = _fork_map(
        # the decoder and 8 KB blocks of open(path, "r"), so errors read the same
        lambda: _line_chunks(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")),
        lambda _, lines: _read_chunk(path, lines)[:3],  # ids, rotations, image paths
        _workers(),
    )
    ids, image_paths, stacks = [], [], []
    for chunk_ids, rotations, chunk_paths in columns:
        ids += chunk_ids
        image_paths += chunk_paths
        stacks.append(rotations)
    del data  # the input's bytes go before the stack is gathered and stored
    stack = np.concatenate(stacks) if stacks else np.empty((0, 3, 3))
    stack.flags.writeable = False
    if entry is not None:
        _store_entry(entry, ids, image_paths, stack)
    return ids, image_paths, stack


# The stack cache: one file per validated label file, named by the sha256
# of rotkit's sources, numpy's version and the label file's sha256, so that
# a changed rule never serves an old verdict.  An entry is the sha256 of
# its body, then the body: the record count (8 bytes, little-endian), the
# stack as little-endian float64 and the UTF-8 JSON of [ids, image_paths].
# No pickle, as the directory may be shared.  Entries are trusted once
# their digest checks out: the digest finds torn or corrupted files, not
# forged ones.  Any entry that does not check out, and any OSError, is a
# miss; nothing here raises.
_CACHE_ENTRIES = 32  # files kept; each store removes the oldest stored past it
_ENTRY_SUFFIX = ".stack"
_DIGEST = 32  # bytes of a sha256
_COUNT = 8  # bytes of the record count


def _cache_dir() -> Optional[str]:
    # ROTKIT_CACHE_DIR, else $XDG_CACHE_HOME/rotkit, else ~/.cache/rotkit;
    # None when no home directory is known.  An empty variable counts as
    # unset, and a relative XDG_CACHE_HOME is ignored, as the XDG spec says.
    directory = os.environ.get("ROTKIT_CACHE_DIR")
    if directory:
        return directory
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.expanduser("~/.cache")
    return os.path.join(base, "rotkit") if os.path.isabs(base) else None


def _sha256(data=b""):
    # hashlib is imported here only, so that the commands that never use the
    # cache (spiral, augment, convert) do not load it
    import hashlib

    return hashlib.sha256(data)


def _cache_entry(data: bytes) -> Optional[str]:
    # The entry path of a label file's bytes when a cache directory is
    # known and rotkit's sources can be read, else None.
    directory = _cache_dir()
    if directory is None:
        return None
    key = _sha256(np.__version__.encode())
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        for name in sorted(os.listdir(here)):
            if name.endswith(".py"):
                with open(os.path.join(here, name), "rb") as fh:
                    key.update(name.encode() + _sha256(fh.read()).digest())
    except OSError:
        return None
    key.update(_sha256(data).digest())
    return os.path.join(directory, key.hexdigest() + _ENTRY_SUFFIX)


def _load_entry(entry) -> Optional[Tuple[List[str], list, np.ndarray]]:
    # The ids, image paths and stack that entry holds, or None; the stack
    # is a read-only view of the entry's bytes.  A hit writes nothing.
    try:
        with open(entry, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    body = memoryview(data)[_DIGEST:]
    if len(body) < _COUNT or _sha256(body).digest() != data[:_DIGEST]:
        return None
    n = int.from_bytes(body[:_COUNT], "little")
    names = _COUNT + 9 * 8 * n  # where the stack's 9 float64 per record end
    try:
        ids, image_paths = JSONDecoder().decode(str(body[names:], "utf-8"))
    except (ValueError, TypeError):  # a short body, bad UTF-8 or JSON, not two items
        return None
    if not (type(ids) is type(image_paths) is list and len(ids) == len(image_paths) == n
            and set(map(type, ids)) <= {str}
            and set(map(type, image_paths)) <= {str, type(None)}):
        return None
    return ids, image_paths, np.frombuffer(body, "<f8", 9 * n, _COUNT).reshape(n, 3, 3)


def _store_entry(entry, ids: list, image_paths: list, stack: np.ndarray) -> None:
    # Write the entry under a temporary name and move it into place, then
    # drop the oldest stored files past _CACHE_ENTRIES.  Names hold
    # no lone surrogate (_extras_error), so they encode as UTF-8.
    body = [
        len(ids).to_bytes(_COUNT, "little"),
        np.ascontiguousarray(stack, "<f8"),
        JSONEncoder(ensure_ascii=False).encode([ids, image_paths]).encode("utf-8"),
    ]
    digest = _sha256()
    for part in body:
        digest.update(part)
    directory = os.path.dirname(entry)
    tmp = f"{entry}.{os.urandom(6).hex()}.tmp"
    try:
        os.makedirs(directory, 0o700, exist_ok=True)  # private, as XDG asks
        with open(tmp, "xb") as fh:
            fh.write(digest.digest())
            fh.writelines(body)
        os.replace(tmp, entry)
        # temporary files count too, so that those of killed runs go in time
        with os.scandir(directory) as items:
            used = sorted((item.stat().st_mtime_ns, item.path) for item in items
                          if item.name.endswith((_ENTRY_SUFFIX, ".tmp")))
        for _, old in used[:-_CACHE_ENTRIES]:
            os.remove(old)
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass


def read_labels(path) -> List[PoseRecord]:
    """Read a JSON Lines label file; blank lines are ignored.

    Raises ParseError with the line number for malformed lines and
    ValidationError naming the record id for contract violations, the
    same errors, in the same order, as record_from_dict line by line.
    Each record's rotation is a row view of its chunk's (n, 3, 3) array.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lines in _line_chunks(fh):
            records += _records(_read_chunk(path, lines))
    return records


def _write_records(fh, path, records) -> None:
    it, start = iter(records), 1
    while chunk := list(islice(it, CHUNK_RECORDS)):
        text = _encode_columns(*_columns(chunk))
        _read_chunk(path, list(enumerate(text[:-1].split("\n"), start)))
        fh.write(text)
        start += len(chunk)


def write_labels(records, path) -> None:
    """Write records as JSON Lines (UTF-8, LF), deterministically.

    Each line is json.dumps(record_to_dict(rec), ensure_ascii=False).
    Records are gathered into chunks (_columns), encoded (_encode_columns)
    and written CHUNK_RECORDS at a time, so `records` may be a generator that
    builds them chunk by chunk; each chunk's text is first read back as
    read_labels reads it, so what the reader refuses raises its error here.
    The file is written as _write_file writes it: if anything raises, an
    existing file at `path` is left untouched.
    """
    _write_file(path, lambda fh: _write_records(fh, path, records))


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
