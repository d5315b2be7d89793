"""Output bytes that do not depend on OpenBLAS's choice of CPU kernel.

numpy's OpenBLAS picks a kernel for the CPU at start-up, and
OPENBLAS_CORETYPE forces one in the process that sets it.  The same corpus
is built in two child processes, one with the default kernel and one with
Prescott's, which has no fused multiply-add, and every file must match;
so must the library's Panoptic compositions and Haar draws.  `pca` is left out: it goes
through LAPACK's eigh, which still depends on the kernel.
"""

import hashlib
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Two forked workers on any host; the spiral spans two chunks and each
# augmented file three.
PIPELINE = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from rotkit.cli import main

out = sys.argv[1]

def run(*argv):
    assert main(list(argv)) == 0, argv

run("spiral", "--count", "1100", "--output", f"{out}/spiral.jsonl")
for seed in ("3", "17"):
    run("augment", "--input", f"{out}/spiral.jsonl", "--output", f"{out}/aug{seed}.jsonl",
        "--multiplier", "2", "--seed", seed)
for target in ("euler_pyr", "euler_rpy"):
    run("convert", "--input", f"{out}/aug3.jsonl", "--output", f"{out}/{target}.jsonl",
        "--target", target)
run("stats", "--input", f"{out}/aug3.jsonl", "--output", f"{out}/stats.csv")
run("eval", "--input", f"{out}/aug3.jsonl", f"{out}/aug17.jsonl", "--output", f"{out}/eval.csv")
run("draw", "--input", f"{out}/aug3.jsonl", "--output", f"{out}/svg")
"""


# md5 of 2000 Panoptic compositions of rotations made with compose_pyr,
# which is entry-wise, so that only panoptic_rotation could follow the kernel
PANOPTIC = """
import hashlib
import numpy as np
from rotkit import compose_pyr, panoptic_rotation

angles = np.random.default_rng(5).uniform(-3.0, 3.0, (2000, 2, 3))
out = [panoptic_rotation(compose_pyr(c), compose_pyr(h)) for c, h in angles]
print(hashlib.md5(np.array(out).tobytes()).hexdigest())
"""


# md5 of 2000 Haar draws, which tier-1 tests use as inputs
RANDOM_ROTATION = """
import hashlib
import numpy as np
from rotkit import random_rotation

rng = np.random.default_rng(9)
print(hashlib.md5(np.array([random_rotation(rng) for _ in range(2000)]).tobytes()).hexdigest())
"""


def _run(coretype, *argv):
    """The stdout of python -c argv with OPENBLAS_CORETYPE=coretype (None:
    the default kernel)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    return subprocess.run([sys.executable, "-c", *argv], env=env, check=True,
                          capture_output=True, text=True, timeout=600).stdout


def _build(out_dir, coretype):
    """md5 of every file the pipeline writes into out_dir, by relative path."""
    os.makedirs(out_dir)
    _run(coretype, PIPELINE, str(out_dir))
    digests = {}
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out_dir)] = hashlib.md5(fh.read()).hexdigest()
    return digests


def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    default = _build(tmp_path / "default", None)
    prescott = _build(tmp_path / "prescott", "Prescott")
    assert len(default) == 7 + 2200
    changed = sorted(name for name in default if default[name] != prescott.get(name))
    assert changed == [], f"{len(changed)} files differ, among them {changed[:5]}"


def test_panoptic_rotation_does_not_depend_on_the_blas_kernel():
    default = _run(None, PANOPTIC)
    assert len(default) == 33
    assert _run("Prescott", PANOPTIC) == default


def test_random_rotation_does_not_depend_on_the_blas_kernel():
    default = _run(None, RANDOM_ROTATION)
    assert len(default) == 33
    assert _run("Prescott", RANDOM_ROTATION) == default
