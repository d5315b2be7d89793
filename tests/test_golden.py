"""The Euler outputs, byte for byte, against committed digests.

`golden.build` runs `spiral`, `augment`, `convert` to every target and
`stats` on a small seeded corpus that includes the Gimbal band, exact
locks and signed zeros; every output file and the commands' stdout must
hash to `tests/data/golden.json`.  A change that moves bytes on purpose
regenerates that file with `tests/golden.py` and says in CHANGES.md which
outputs moved and by how much; the failure message gives both.
"""

import json

import golden


def test_euler_outputs_match_the_golden_digests(tmp_path):
    with open(golden.GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    got = golden.build(tmp_path)
    assert sorted(got) == sorted(want)
    moved = [golden.mismatch(name, data, want[name]) for name, data in sorted(got.items())
             if golden.digest(name, data) != want[name]]
    assert not moved, "outputs moved:\n" + "\n".join(moved)
