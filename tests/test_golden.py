"""The Euler and `eval` outputs, byte for byte, against committed digests.

`golden.build` runs `spiral`, `augment`, `convert` to every target and
`stats` on a small seeded corpus that includes the Gimbal band, exact
locks and signed zeros, and `eval` on identical, small-angle and near-pi
pairs; every output file and the commands' stdout must hash to
`tests/data/golden.json`.  A change that moves bytes on purpose
regenerates that file with `tests/golden.py` and says in CHANGES.md which
outputs moved and by how much; the failure message gives both.
"""

import json
import math

import pytest

import golden


@pytest.fixture(scope="module")
def want():
    with open(golden.GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def got(tmp_path_factory):
    return golden.build(tmp_path_factory.mktemp("golden"))


def test_euler_outputs_match_the_golden_digests(got, want):
    assert sorted(got) == sorted(want)
    moved = [golden.mismatch(name, data, want[name]) for name, data in sorted(got.items())
             if golden.digest(name, data) != want[name]]
    assert not moved, "outputs moved:\n" + "\n".join(moved)


def test_a_one_ulp_move_of_an_eval_row_is_caught(got, want):
    lines = got["eval.csv"].decode("utf-8").splitlines(keepends=True)
    rec_id, value = lines[-1].rstrip("\n").split(",")
    moved = math.nextafter(float(value), math.inf)
    lines[-1] = f"{rec_id},{moved!r}\n"
    data = "".join(lines).encode("utf-8")
    assert golden.digest("eval.csv", data) != want["eval.csv"]
    message = golden.mismatch("eval.csv", data, want["eval.csv"])
    assert f"line {len(lines)}:" in message
    assert f"largest numeric difference {moved - float(value):.3g}" in message
