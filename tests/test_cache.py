"""The stack cache behind eval, stats, pca and draw (labels._read_stack):
the same stdout and files with the cache off, cold and warm; no fork on a
hit; and a miss, never an error, for an entry or a directory that does not
check out."""

import builtins
import json
import os

import numpy as np
import pytest

from rotkit import labels, read_labels
from rotkit.cli import main
from test_cli_chunks import _FullDisk
from test_fork_map import COMMANDS, _assert_no_children, _run
from test_labels_batch import DEFECTS, _objects, _write

CHUNK = 16
N = 3 * CHUNK + 5
CACHED = ["eval-pred", "eval-truth", "stats", "pca", "draw"]
_CACHE_DIR = labels._cache_dir  # conftest.py's no_stack_cache turns it off


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(labels, "CHUNK_RECORDS", CHUNK)


@pytest.fixture
def cache(tmp_path):
    return tmp_path / "cache"


@pytest.fixture
def inputs(tmp_path):
    # two files with the same ids and other rotations
    return {"IN": str(_write(tmp_path / "pred.jsonl", _objects(N, seed=1))),
            "GOOD": str(_write(tmp_path / "truth.jsonl", _objects(N, seed=2)))}


def _entries(cache):
    return sorted(os.listdir(cache)) if os.path.isdir(cache) else []


def _cache_on(monkeypatch, cache):
    monkeypatch.setattr(labels, "_cache_dir", _CACHE_DIR)
    monkeypatch.setenv("ROTKIT_CACHE_DIR", str(cache))


def _cache_off(monkeypatch):
    monkeypatch.setattr(labels, "_cache_dir", lambda: None)


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("command", CACHED)
def test_cold_and_warm_give_the_same_bytes(tmp_path, cache, inputs, monkeypatch, capsys,
                                           command, cores):
    argv = COMMANDS[command]
    off = _run(argv, inputs, tmp_path / "off", cores, monkeypatch, capsys)
    _cache_on(monkeypatch, cache)
    cold = _run(argv, inputs, tmp_path / "cold", cores, monkeypatch, capsys)
    stored = _entries(cache)
    warm = _run(argv, inputs, tmp_path / "warm", cores, monkeypatch, capsys)
    assert off[0] == 0 and off[3]
    assert cold == off and warm == off
    assert len(stored) == (2 if command.startswith("eval") else 1)
    assert _entries(cache) == stored
    _assert_no_children()


def test_hit_returns_what_a_read_returns(cache, inputs, monkeypatch):
    _cache_on(monkeypatch, cache)
    ids, image_paths, stack = labels._read_stack(inputs["IN"])
    hit = labels._read_stack(inputs["IN"])
    assert hit[:2] == (ids, image_paths) and None in image_paths
    assert hit[2].dtype == stack.dtype and hit[2].shape == stack.shape == (N, 3, 3)
    assert hit[2].tobytes() == stack.tobytes()
    for got in (stack, hit[2]):
        assert not got.flags.writeable and got.flags.c_contiguous


def _listing(cache):
    # each entry's name and mtime
    return [(name, os.stat(cache / name).st_mtime_ns) for name in _entries(cache)]


def test_hit_writes_nothing(tmp_path, cache, inputs, monkeypatch, capsys):
    _cache_on(monkeypatch, cache)
    cold = _run(COMMANDS["stats"], inputs, tmp_path / "cold", 2, monkeypatch, capsys)
    for name in _entries(cache):  # an old mtime, so that any refresh shows
        os.utime(cache / name, ns=(10**9, 10**9))
    stored = _listing(cache)
    warm = _run(COMMANDS["stats"], inputs, tmp_path / "warm", 2, monkeypatch, capsys)
    assert warm == cold and cold[0] == 0 and len(stored) == 1
    assert _listing(cache) == stored


def test_hit_forks_nothing(tmp_path, cache, inputs, monkeypatch, capsys):
    _cache_on(monkeypatch, cache)
    want = _run(COMMANDS["eval-pred"], inputs, tmp_path / "cold", 2, monkeypatch, capsys)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    got = _run(COMMANDS["eval-pred"], inputs, tmp_path / "warm", 2, monkeypatch, capsys)
    assert got == want and want[0] == 0
    # a miss would fork
    other = str(_write(tmp_path / "other.jsonl", _objects(N, seed=3)))
    with pytest.raises(AssertionError, match="forked"):
        main(["stats", "--input", other])


def _rewrite_in_place(path):
    # the first two lines swapped, with the file's size and times kept
    before = os.stat(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[0], lines[1] = lines[1], lines[0]
    with open(path, "w", encoding="utf-8") as fh:  # in place: the same inode
        fh.writelines(lines)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))


def _state(path):
    # what a rewrite in place changes: device, inode, size and mtime
    st = os.stat(path)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def test_same_size_rewrite_with_its_mtime_restored_is_a_miss(tmp_path, cache, inputs,
                                                             monkeypatch, capsys):
    path = inputs["IN"]
    _cache_on(monkeypatch, cache)
    assert _run(COMMANDS["pca"], inputs, tmp_path / "first", 2, monkeypatch, capsys)[0] == 0
    state = _state(path)
    _rewrite_in_place(path)
    assert _state(path) == state
    got = _run(COMMANDS["pca"], inputs, tmp_path / "second", 2, monkeypatch, capsys)
    assert len(_entries(cache)) == 2
    _cache_off(monkeypatch)
    want = _run(COMMANDS["pca"], inputs, tmp_path / "off", 2, monkeypatch, capsys)
    assert got == want


def test_rewrite_during_the_read_gives_the_bytes_read(tmp_path, cache, inputs, monkeypatch,
                                                      capsys):
    # The file is rewritten (same size) after it was read and before the
    # workers parse it: they parse the bytes that were read and keyed.
    path, fork_map = inputs["IN"], labels._fork_map
    with open(path, "rb") as fh:
        read = fh.read()
    want = _run(COMMANDS["pca"], inputs, tmp_path / "off", 2, monkeypatch, capsys)

    def rewriting(*args):
        _rewrite_in_place(path)
        return fork_map(*args)

    _cache_on(monkeypatch, cache)
    monkeypatch.setattr(labels, "_fork_map", rewriting)
    got = _run(COMMANDS["pca"], inputs, tmp_path / "during", 2, monkeypatch, capsys)
    assert got == want and want[0] == 0
    assert len(_entries(cache)) == 1
    monkeypatch.setattr(labels, "_fork_map", fork_map)
    rewritten = _run(COMMANDS["pca"], inputs, tmp_path / "rewritten", 2, monkeypatch, capsys)
    assert rewritten[0] == 0 and rewritten != want
    assert len(_entries(cache)) == 2  # a miss
    with open(path, "wb") as fh:
        fh.write(read)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _run(COMMANDS["pca"], inputs, tmp_path / "back", 2, monkeypatch, capsys) == want
    assert len(_entries(cache)) == 2  # a hit


def _recount(data, delta):
    # the entry with its record count moved by delta and its digest redone
    body = bytearray(data[32:])
    body[:8] = (int.from_bytes(body[:8], "little") + delta).to_bytes(8, "little")
    return labels._sha256(body).digest() + body


def _fewer_names(data):
    # the entry with one id and image path fewer and its digest redone
    n = int.from_bytes(data[32:40], "little")
    head = 40 + 72 * n
    ids, paths = json.loads(data[head:].decode("utf-8"))
    body = data[32:head] + json.dumps([ids[1:], paths[1:]]).encode("utf-8")
    return labels._sha256(body).digest() + body


DAMAGE = {
    "empty": lambda data: b"",
    "digest_only": lambda data: data[:32],
    "truncated": lambda data: data[:-1],
    "stack_bit": lambda data: data[:100] + bytes([data[100] ^ 1]) + data[101:],
    "names_bit": lambda data: data[:-3] + bytes([data[-3] ^ 1]) + data[-2:],
    "digest_bit": lambda data: bytes([data[0] ^ 1]) + data[1:],
    "count_up": lambda data: _recount(data, 1),
    "count_down": lambda data: _recount(data, -1),
    "count_huge": lambda data: _recount(data, 2**60),
    "names_short": _fewer_names,
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_entry_is_a_miss_and_is_rewritten(tmp_path, cache, inputs, monkeypatch,
                                                  capsys, damage):
    _cache_on(monkeypatch, cache)
    want = _run(COMMANDS["pca"], inputs, tmp_path / "cold", 2, monkeypatch, capsys)
    [name] = _entries(cache)
    entry = cache / name
    stored = entry.read_bytes()
    entry.write_bytes(DAMAGE[damage](stored))
    got = _run(COMMANDS["pca"], inputs, tmp_path / "damaged", 2, monkeypatch, capsys)
    assert got == want and want[0] == 0
    assert _entries(cache) == [name]
    assert entry.read_bytes() == stored


def _full_disk_open(file, mode="r", *args, **kwargs):
    fh = builtins.open(file, mode, *args, **kwargs)
    return _FullDisk(fh) if mode == "xb" else fh


@pytest.mark.parametrize("how", ["under_a_file", "full_disk"])
def test_unwritable_cache_directory_changes_nothing(tmp_path, inputs, monkeypatch, capsys, how):
    want = _run(COMMANDS["eval-truth"], inputs, tmp_path / "off", 2, monkeypatch, capsys)
    if how == "under_a_file":
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"
    else:
        cache = tmp_path / "cache"
        monkeypatch.setattr(labels, "open", _full_disk_open, raising=False)
    _cache_on(monkeypatch, cache)
    for run in ("first", "second"):
        got = _run(COMMANDS["eval-truth"], inputs, tmp_path / run, 2, monkeypatch, capsys)
        assert got == want and want[0] == 0
        assert _entries(cache) == []  # no entry, and no temporary file left behind


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_defect_repeats_its_error_and_leaves_no_entry(tmp_path, cache, monkeypatch, capsys,
                                                      defect):
    items = _objects(N, seed=1)
    items[CHUNK + 7] = DEFECTS[defect](items[CHUNK + 7])
    paths = {"IN": str(_write(tmp_path / "bad.jsonl", items))}
    want = _run(COMMANDS["stats"], paths, tmp_path / "off", 2, monkeypatch, capsys)
    _cache_on(monkeypatch, cache)
    for run in ("first", "second"):
        assert _run(COMMANDS["stats"], paths, tmp_path / run, 2, monkeypatch, capsys) == want
    assert want[0] == 1 and want[2].startswith("rotkit: error: ")
    assert _entries(cache) == []
    _assert_no_children()


def test_oldest_stored_entries_go(tmp_path, cache, monkeypatch):
    monkeypatch.setattr(labels, "_CACHE_ENTRIES", 2)
    _cache_on(monkeypatch, cache)
    files = [str(_write(tmp_path / f"{k}.jsonl", _objects(N, seed=k))) for k in range(3)]
    names = []
    for k, path in enumerate(files[:2]):
        labels._read_stack(path)
        [name] = set(_entries(cache)) - set(names)
        names.append(name)
        os.utime(cache / name, ns=(k * 10**9, k * 10**9))  # file 0 is the oldest
    labels._read_stack(files[0])  # a hit does not save file 0
    labels._read_stack(files[2])
    [third] = set(_entries(cache)) - set(names)
    assert _entries(cache) == sorted([names[1], third])


def test_cache_location(tmp_path, monkeypatch):
    home = tmp_path / "home"
    monkeypatch.setattr(labels, "_cache_dir", _CACHE_DIR)
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.delenv("ROTKIT_CACHE_DIR")
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    assert labels._cache_dir() == str(home / ".cache" / "rotkit")
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")  # not absolute: ignored
    assert labels._cache_dir() == str(home / ".cache" / "rotkit")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert labels._cache_dir() == str(tmp_path / "xdg" / "rotkit")
    path = str(_write(tmp_path / "in.jsonl", _objects(N, seed=1)))
    assert main(["stats", "--input", path]) == 0
    assert len(_entries(tmp_path / "xdg" / "rotkit")) == 1
    assert os.stat(tmp_path / "xdg" / "rotkit").st_mode & 0o777 == 0o700
    monkeypatch.setenv("ROTKIT_CACHE_DIR", str(tmp_path / "mine"))
    assert labels._cache_dir() == str(tmp_path / "mine")
    monkeypatch.setenv("ROTKIT_CACHE_DIR", "")  # empty: unset
    assert labels._cache_dir() == str(tmp_path / "xdg" / "rotkit")


def test_only_the_stack_readers_use_the_cache(tmp_path, cache, monkeypatch):
    _cache_on(monkeypatch, cache)
    spiral, out = str(tmp_path / "spiral.jsonl"), str(tmp_path / "out.jsonl")
    assert main(["spiral", "--count", str(N), "--output", spiral]) == 0
    assert main(["augment", "--input", spiral, "--output", out]) == 0
    assert main(["convert", "--input", out, "--output", out, "--target", "euler_pyr"]) == 0
    assert len(read_labels(out)) == N
    assert _entries(cache) == []
    assert main(["stats", "--input", out]) == 0
    assert len(_entries(cache)) == 1


def test_empty_file_is_cached_as_empty(tmp_path, cache, monkeypatch):
    _cache_on(monkeypatch, cache)
    path = str(_write(tmp_path / "blank.jsonl", ["", "  "]))
    for _ in range(2):
        ids, image_paths, stack = labels._read_stack(path)
        assert (ids, image_paths, stack.shape) == ([], [], (0, 3, 3))
        assert stack.dtype == np.float64
    assert len(_entries(cache)) == 1
