"""Every command's outputs, byte for byte, against committed digests.

`golden.build` runs `spiral`, `augment`, `convert` to every target and
`stats` on a small seeded corpus that includes the Gimbal band, exact
locks and signed zeros, `eval` on identical, small-angle and near-pi
pairs, and `draw` and `pca` on the annotated file; every output file and
the commands' stdout must hash to `tests/data/golden.json`, except that
`pca`'s numbers, which follow LAPACK, are held within `golden.PCA_RTOL`.
A change that moves bytes on purpose regenerates that file with
`tests/golden.py` and says in CHANGES.md which outputs moved and by how
much; the failure message gives both.
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
             if not golden.matches(name, data, want[name])]
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


def test_a_one_ulp_move_of_an_svg_coordinate_is_caught(got, want):
    name = "draw/pyr_00.svg"
    text = got[name].decode("utf-8")
    value = text.split('x2="', 1)[1].split('"', 1)[0]
    moved = math.nextafter(float(value), math.inf)
    data = text.replace(f'x2="{value}"', f'x2="{moved!r}"', 1).encode("utf-8")
    assert not golden.matches(name, data, want[name])
    line = next(i for i, row in enumerate(text.splitlines(), 1) if 'x2="' in row)
    message = golden.mismatch(name, data, want[name])
    assert f"line {line}:" in message
    assert f"largest numeric difference {moved - float(value):.3g}" in message


def test_pca_numbers_hold_within_the_tolerance(got, want):
    lines = got["pca.csv"].decode("utf-8").splitlines(keepends=True)
    rec_id, *values = lines[-1].rstrip("\n").split(",")
    for scale, caught in ((1e-12, False), (1e-8, True)):
        moved = float(values[0]) * (1.0 + scale)
        lines[-1] = ",".join([rec_id, repr(moved), *values[1:]]) + "\n"
        data = "".join(lines).encode("utf-8")
        assert golden.matches("pca.csv", data, want["pca.csv"]) is not caught
    assert f"line {len(lines)}:" in golden.mismatch("pca.csv", data, want["pca.csv"])
