"""Golden digests of every command's outputs: build, compare, regenerate.

`build` makes a small seeded corpus from routes that do not go through
BLAS (`spiral`, `augment` at two seeds, and an annotated file composed
with `core._compose_rows`), then runs `convert` to every target and
`stats` on each corpus file, in-process.  It also writes predictions for
the annotated file, turned by `core._mul` products with `_compose_rows`
offsets (identical, 1e-8 to 1e-3 rad and near-pi pairs), and runs `eval`
on them, and `draw` (image hrefs included) and `pca` on the annotated
file.  `tests/test_golden.py` compares what it writes with
`tests/data/golden.json`.

Each output is stored as the sha256 of its bytes and, per line, a short
digest (to name the first line that differs) followed by the numbers that
the Euler extraction feeds: the `euler_*_deg` views of a label file, every
number of a CSV, SVG or stdout line (so that a mismatch can say by how
much they moved).  `pca` follows LAPACK's eigh, which another kernel may
round differently (see the `rotkit.cli` docstring), so its CSV and stdout
are pinned by their text with the numbers masked, and by each number
within PCA_RTOL (relative, and absolute below 1), not by bytes.

Regenerate the digests, on the commit whose bytes are the reference, with

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import tempfile
from itertools import permutations, product

import numpy as np

from rotkit.cli import main
from rotkit.core import _compose_rows, _det, _mul
from rotkit.euler import GIMBAL_EPS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden.json")
TARGETS = ("euler_pyr", "euler_rpy", "matrix")
PCA_OUTPUTS = ("pca.csv", "pca.stdout.txt")
PCA_RTOL = 1e-10
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _signed_permutations():
    # The 24 axis-aligned rotations, their zero entries stored as -0.0.
    out = []
    for perm, signs in product(permutations(range(3)), product((1.0, -1.0), repeat=3)):
        m = np.full((3, 3), -0.0)
        m[[0, 1, 2], perm] = signs
        if _det(m.ravel().tolist()) > 0:
            out.append(m)
    return out


def _annotated(path):
    """Write rows within +/-10 GIMBAL_EPS of each convention's lock and
    exact +/-90 deg locks, each with the view of the angles that composed
    it, then the axis-aligned rotations."""
    rng = np.random.default_rng(2024)
    offsets = GIMBAL_EPS * np.array([-10.0, -3.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0, 10.0])
    lines = []
    for convention in ("pyr", "rpy"):
        angles = rng.uniform(-math.pi / 2, math.pi / 2, (2 * len(offsets), 3))
        # the middle angle (pyr's yaw, rpy's pitch) at and around +/-90 deg
        angles[:, 1] = np.concatenate([pole * math.pi / 2 + offsets for pole in (1.0, -1.0)])
        for i, (m, e) in enumerate(zip(_compose_rows(angles, convention), angles)):
            rec_id = f"{convention}_{i:02d}"
            lines.append({
                "id": rec_id, "image_path": f"img/{rec_id}.jpg",
                "rotation": m.reshape(9).tolist(),
                f"euler_{convention}_deg": np.degrees(e).tolist(),
            })
    for i, m in enumerate(_signed_permutations()):
        lines.append({"id": f"axes_{i:02d}", "rotation": m.reshape(9).tolist()})
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)


def _predictions(truth_path, path):
    """Write a prediction for each record of truth_path: the truth rotation
    itself, then turned by 1e-8 to 1e-3 rad, then by pi - 1e-12 to
    pi - 1e-3 rad about each axis in turn."""
    with open(truth_path, encoding="utf-8") as fh:
        truth = [json.loads(line) for line in fh]
    n = len(truth) // 3
    rng = np.random.default_rng(7)
    small = rng.uniform(-1.0, 1.0, (n, 3)) * np.logspace(-8, -3, n)[:, None]
    far = np.zeros((n, 3))
    far[np.arange(n), np.arange(n) % 3] = math.pi - np.logspace(-12, -3, n)
    offsets = _compose_rows(np.concatenate([np.zeros((len(truth) - 2 * n, 3)), small, far]),
                            "pyr")
    rotations = np.array([rec["rotation"] for rec in truth]).T
    turned = np.stack(_mul(rotations, offsets.reshape(-1, 9).T), axis=-1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(json.dumps({"id": rec["id"], "rotation": m.tolist()}) + "\n"
                      for rec, m in zip(truth, turned))


def build(out_dir) -> dict:
    """Every output of the corpus run in out_dir, by name: bytes."""
    out_dir = str(out_dir)
    stdout, eval_stdout, draw_stdout, pca_stdout = (io.StringIO() for _ in range(4))

    def run(*argv, out=stdout):
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0, argv

    def at(name):
        return os.path.join(out_dir, name)

    run("spiral", "--count", "16", "--output", at("spiral.jsonl"))
    for seed in ("3", "17"):
        run("augment", "--input", at("spiral.jsonl"), "--output", at(f"aug{seed}.jsonl"),
            "--multiplier", "2", "--seed", seed)
    _annotated(at("annotated.jsonl"))
    corpus = ("spiral", "aug3", "aug17", "annotated")
    for name in corpus:
        for target in TARGETS:
            run("convert", "--input", at(f"{name}.jsonl"), "--target", target,
                "--output", at(f"{name}.{target}.jsonl"))
        run("stats", "--input", at(f"{name}.jsonl"), "--output", at(f"{name}.stats.csv"))
    _predictions(at("annotated.jsonl"), at("predicted.jsonl"))
    run("eval", "--input", at("predicted.jsonl"), at("annotated.jsonl"),
        "--output", at("eval.csv"), out=eval_stdout)
    run("pca", "--input", at("annotated.jsonl"), "--output", at("pca.csv"), out=pca_stdout)
    run("draw", "--input", at("annotated.jsonl"), "--output", at("draw"), out=draw_stdout)
    outputs = {}
    for root, _, files in os.walk(out_dir):
        for file in files:
            with open(os.path.join(root, file), "rb") as fh:
                name = os.path.relpath(os.path.join(root, file), out_dir)
                outputs[name.replace(os.sep, "/")] = fh.read()
    outputs["stdout.txt"] = stdout.getvalue().encode("utf-8")
    outputs["eval.stdout.txt"] = eval_stdout.getvalue().encode("utf-8")
    # draw names its output directory, a temporary one
    outputs["draw.stdout.txt"] = draw_stdout.getvalue().replace(at("draw"), "draw").encode("utf-8")
    outputs["pca.stdout.txt"] = pca_stdout.getvalue().encode("utf-8")
    return outputs


def numbers(name: str, line: str) -> list:
    """The numbers of one output line that golden.json keeps."""
    if name.endswith(".jsonl"):
        obj = json.loads(line)
        return [v for key in sorted(obj) if key.startswith("euler_") for v in obj[key]]
    return [float(v) for v in _NUMBER.findall(line)]


def digest(name: str, data: bytes) -> dict:
    """The golden entry of one output: its sha256, and per line a short
    digest followed by the line's kept numbers; for a `pca` output no
    sha256, and each line's digest taken with its numbers masked."""
    lines = data.decode("utf-8").splitlines()
    if name in PCA_OUTPUTS:
        return {"lines": [[_short(_NUMBER.sub("#", line)), *numbers(name, line)]
                          for line in lines]}
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "lines": [[_short(line), *numbers(name, line)] for line in lines],
    }


def _short(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:12]


def _same_line(name: str, new: list, old: list) -> bool:
    if name not in PCA_OUTPUTS:
        return new[0] == old[0]
    return len(new) == len(old) and new[0] == old[0] and all(
        math.isclose(a, b, rel_tol=PCA_RTOL, abs_tol=PCA_RTOL) for a, b in zip(new[1:], old[1:]))


def matches(name: str, data: bytes, want: dict) -> bool:
    """True iff output `name` holds to its golden entry: every byte, or for
    a `pca` output its text and its numbers within PCA_RTOL."""
    got = digest(name, data)
    if name not in PCA_OUTPUTS:
        return got == want
    return len(got["lines"]) == len(want["lines"]) and all(
        _same_line(name, new, old) for new, old in zip(got["lines"], want["lines"]))


def mismatch(name: str, data: bytes, want: dict) -> str:
    """How output `name` differs from its golden entry: the first line that
    differs and the largest difference of a kept number."""
    got = digest(name, data)["lines"]
    first = next((i for i, (new, old) in enumerate(zip(got, want["lines"]))
                  if not _same_line(name, new, old)),
                 min(len(got), len(want["lines"])))
    lines = data.decode("utf-8").splitlines()
    text = lines[first][:160] if first < len(lines) else "<end of file>"
    largest = max([abs(a - b) for new, old in zip(got, want["lines"]) if len(new) == len(old)
                   for a, b in zip(new[1:], old[1:])], default=0.0)
    return (f"{name}: {len(got)} lines (golden {len(want['lines'])}); "
            f"first differs at line {first + 1}: {text!r}; "
            f"largest numeric difference {largest:.3g}")


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as out_dir:
        golden = {name: digest(name, data) for name, data in build(out_dir).items()}
    # one row per output line, so that a regenerated file diffs line by line
    entries = []
    for name, entry in sorted(golden.items()):
        sha = f'"sha256": "{entry["sha256"]}", ' if "sha256" in entry else ""
        entries.append(f'{json.dumps(name)}: {{{sha}"lines": [\n'
                       + ",\n".join(json.dumps(row) for row in entry["lines"]) + "]}")
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n" + ",\n".join(entries) + "\n}\n")
    print(f"wrote {len(golden)} digests to {GOLDEN}")


if __name__ == "__main__":
    write_golden()
