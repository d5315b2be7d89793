"""The CLI on the fork map (labels._map_chunks, labels._map_ranges): the
same output bytes, errors and files through forked workers as in-process,
and no worker left behind however a command ends."""

import builtins
import os
import signal
import subprocess

import pytest

from rotkit import labels
from rotkit.cli import main
from test_cli_chunks import _FullDisk
from test_labels_batch import DEFECTS, _objects, _write

CHUNK = 16
N = 3 * CHUNK + 5  # four chunks, the last one partial
# one defect position in each of the first three chunks
WHERE = (2, CHUNK + 7, 3 * CHUNK - 1)

# IN is the file under test, GOOD a valid file with the same ids, OUT the
# output directory
COMMANDS = {
    "augment": ["augment", "--input", "IN", "--output", "OUT/out.jsonl", "--multiplier", "2"],
    "augment-flip": ["augment", "--input", "IN", "--output", "OUT/out.jsonl", "--mode", "flip",
                     "--angle-deg", "80"],
    "convert-matrix": ["convert", "--input", "IN", "--output", "OUT/out.jsonl",
                       "--target", "matrix"],
    "convert-pyr": ["convert", "--input", "IN", "--output", "OUT/out.jsonl",
                    "--target", "euler_pyr"],
    "convert-rpy": ["convert", "--input", "IN", "--output", "OUT/out.jsonl",
                    "--target", "euler_rpy"],
    "eval-pred": ["eval", "--input", "IN", "GOOD", "--output", "OUT/eval.csv"],
    "eval-truth": ["eval", "--input", "GOOD", "IN", "--output", "OUT/eval.csv"],
    "stats": ["stats", "--input", "IN", "--output", "OUT/stats.csv"],
    "pca": ["pca", "--input", "IN", "--output", "OUT/pca.csv"],
    "draw": ["draw", "--input", "IN", "--output", "OUT/svg"],
}


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(labels, "CHUNK_RECORDS", CHUNK)


@pytest.fixture(autouse=True)
def deadline():
    # a map that hangs fails its test instead of stalling the suite; forked
    # workers do not inherit the alarm
    def expire(signum, frame):
        raise TimeoutError("test ran past 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def good(tmp_path):
    return _write(tmp_path / "good.jsonl", _objects(N, seed=1))


def _listing(root):
    """Every file under root, by relative path, with its bytes."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _run(argv, paths, out_dir, cores, monkeypatch, capsys):
    """Exit code, stdout, stderr and the files written, with `cores` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    os.makedirs(out_dir)
    argv = [paths.get(a, a.replace("OUT/", f"{out_dir}/", 1)) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.replace(str(out_dir), "OUT"), captured.err, _listing(out_dir)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cores", [2, 3, 5])
@pytest.mark.parametrize("command", ["spiral", *COMMANDS])
def test_valid_input_gives_the_same_bytes(tmp_path, good, monkeypatch, capsys, command, cores):
    if command == "spiral":
        argv = ["spiral", "--count", str(N), "--output", "OUT/out.jsonl"]
    else:
        argv = COMMANDS[command]
    paths = {"IN": str(good), "GOOD": str(good)}
    want = _run(argv, paths, tmp_path / "one", 1, monkeypatch, capsys)
    got = _run(argv, paths, tmp_path / "many", cores, monkeypatch, capsys)
    assert want[0] == 0 and want[3]
    assert got == want
    _assert_no_children()


# inputs with fewer chunks than workers: each worker with no chunk reads the
# input, reports that it is done and exits
IDLE = {"empty": [], "blank": ["", "  ", "\t"], "one": _objects(1, seed=1)}


@pytest.mark.parametrize("command, source", [
    ("spiral", None), *((command, source) for command in COMMANDS for source in IDLE)])
def test_idle_workers_change_nothing(tmp_path, monkeypatch, capsys, command, source):
    if command == "spiral":
        argv, paths = ["spiral", "--count", "1", "--output", "OUT/out.jsonl"], {}
    else:
        small = str(_write(tmp_path / f"{source}.jsonl", IDLE[source]))
        argv, paths = COMMANDS[command], {"IN": small, "GOOD": small}
    want = _run(argv, paths, tmp_path / "one", 1, monkeypatch, capsys)
    got = _run(argv, paths, tmp_path / "many", 3, monkeypatch, capsys)
    assert got == want
    _assert_no_children()


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_defect_gives_the_same_error(tmp_path, good, monkeypatch, capsys, defect):
    for where in WHERE:
        items = _objects(N, seed=1)
        items[where] = DEFECTS[defect](items[where])
        bad = _write(tmp_path / f"bad{where}.jsonl", items)
        paths = {"IN": str(bad), "GOOD": str(good)}
        for command, argv in COMMANDS.items():
            want = _run(argv, paths, tmp_path / f"{where}-{command}-one", 1, monkeypatch, capsys)
            got = _run(argv, paths, tmp_path / f"{where}-{command}-many", 3, monkeypatch, capsys)
            assert want[0] == 1 and want[2].startswith("rotkit: error: ")
            assert got == want, (where, command)
            assert got[3] == {}
            _assert_no_children()


@pytest.mark.parametrize("defect", ["int_too_long", "nested_too_deep"])
@pytest.mark.parametrize("cores", [1, 2])
def test_undecodable_line_is_one_error_line(tmp_path, monkeypatch, capfd, defect, cores):
    # at the file descriptor, so that a worker's output would show
    items = _objects(N, seed=1)
    items[CHUNK + 7] = DEFECTS[defect](items[CHUNK + 7])
    bad = _write(tmp_path / "bad.jsonl", items)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert main(["stats", "--input", str(bad)]) == 1
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith(f"rotkit: error: {bad}:{CHUNK + 8}: invalid JSON: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    _assert_no_children()


@pytest.mark.parametrize("cores", [1, 2])
def test_pca_refuses_duplicate_ids(tmp_path, monkeypatch, capsys, cores):
    # 7 and "7" both read as id "7", in different chunks
    items = _objects(N, seed=1)
    items[2], items[CHUNK + 7] = dict(items[2], id=7), dict(items[CHUNK + 7], id="7")
    bad = _write(tmp_path / "dup.jsonl", items)
    code, out, err, files = _run(COMMANDS["pca"], {"IN": str(bad)}, tmp_path / "out", cores,
                                 monkeypatch, capsys)
    assert (code, out, files) == (1, "", {})
    assert err == f"rotkit: error: {bad}: duplicate id '7'\n"
    _assert_no_children()


@pytest.mark.parametrize("how", ["exit", "kill"])
@pytest.mark.parametrize("command", ["augment", "convert-pyr", "eval-truth", "draw"])
def test_dead_worker_fails_the_command(tmp_path, good, monkeypatch, capsys, how, command):
    parent, read_chunk = os.getpid(), labels._read_chunk

    def dying(path, lines):
        # only in a worker, and only on chunk 1, whose first line is CHUNK + 1
        if os.getpid() != parent and lines[0][0] == CHUNK + 1:
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return read_chunk(path, lines)

    monkeypatch.setattr(labels, "_read_chunk", dying)
    paths = {"IN": str(good), "GOOD": str(good)}
    code, out, err, files = _run(COMMANDS[command], paths, tmp_path / "out", 2, monkeypatch, capsys)
    status = 3 if how == "exit" else -signal.SIGKILL
    assert (code, out) == (2, "")
    assert err == f"rotkit: i/o error: worker 1 exited ({status}) before reporting chunk 1\n"
    assert files == {}
    _assert_no_children()


@pytest.mark.parametrize("command", ["augment", "convert-rpy"])
def test_failed_write_stops_the_workers(tmp_path, good, monkeypatch, capsys, command):
    # the parent stops reading after the first chunk; the workers, busy or
    # blocked on a full pipe, are killed and reaped
    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if "x" in mode else fh

    monkeypatch.setattr(labels, "open", full_disk_open, raising=False)
    paths = {"IN": str(good), "GOOD": str(good)}
    code, out, err, files = _run(COMMANDS[command], paths, tmp_path / "out", 2, monkeypatch, capsys)
    assert (code, out, files) == (2, "", {})
    assert "No space left on device" in err
    _assert_no_children()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_missing_input_is_an_io_error(tmp_path, good, monkeypatch, capsys, command):
    missing = str(tmp_path / "absent.jsonl")
    paths = {"IN": missing, "GOOD": str(good)}
    code, out, err, files = _run(COMMANDS[command], paths, tmp_path / "out", 2, monkeypatch, capsys)
    assert (code, out, files) == (2, "", {})
    assert err == f"rotkit: i/o error: [Errno 2] No such file or directory: {missing!r}\n"


def _not_utf8(tmp_path, good):
    # the good file with byte 0xff at offset 100 of its second 8 KB block,
    # which the UTF-8 decoder reads as one block
    data = bytearray(good.read_bytes())
    data[8192 + 100] = 0xFF
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(bytes(data))
    return str(bad)


def _directory(tmp_path, good):
    os.mkdir(tmp_path / "dir")
    return str(tmp_path / "dir")


# input, exit code and the error line without its path
READ_ERRORS = {
    "not_utf8": (_not_utf8, 1,
                 "rotkit: error: 'utf-8' codec can't decode byte 0xff in position 100: "
                 "invalid start byte\n"),
    "directory": (_directory, 2, "rotkit: i/o error: [Errno 21] Is a directory: {path!r}\n"),
}


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("error", sorted(READ_ERRORS))
def test_read_error_is_reported(tmp_path, good, monkeypatch, capsys, error, command, cores):
    make, status, message = READ_ERRORS[error]
    path = make(tmp_path, good)
    paths = {"IN": path, "GOOD": str(good)}
    code, out, err, files = _run(COMMANDS[command], paths, tmp_path / "out", cores,
                                 monkeypatch, capsys)
    assert (code, out, files) == (status, "", {})
    assert err == message.format(path=path)
    _assert_no_children()


def test_pipe_input_is_read_once_and_cached(tmp_path, good, monkeypatch, capsys):
    # the parent reads a named pipe once, whole, so the writer sees one
    # reader; a second pipe with the same bytes is a cache hit, with no fork
    want = _run(COMMANDS["stats"], {"IN": str(good)}, tmp_path / "file", 2, monkeypatch, capsys)
    cache = tmp_path / "cache"
    monkeypatch.setattr(labels, "_cache_dir", lambda: str(cache))
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)

    def piped(out_dir):
        writer = subprocess.Popen(["sh", "-c", f"cat '{good}' > '{fifo}'"])
        try:
            return _run(COMMANDS["stats"], {"IN": fifo}, out_dir, 2, monkeypatch, capsys)
        finally:
            assert writer.wait(timeout=60) == 0

    assert piped(tmp_path / "first") == want and want[0] == 0
    assert len(os.listdir(cache)) == 1

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert piped(tmp_path / "second") == want
    assert len(os.listdir(cache)) == 1
