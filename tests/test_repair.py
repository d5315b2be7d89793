"""Loose rotations are repaired on read.

A rotation that label files admit (FILE_ORTHO_TOL, 1e-6) but that fails
the library's check (ORTHO_TOL, 1e-9), such as any rotation rounded to
float32, is read as its nearest rotation, on both reader routes; every
other rotation is read as stored.  The reference is the orthogonal polar
factor from numpy's SVD.
"""

import hashlib
import itertools
import json
import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rotkit import (
    GIMBAL_EPS,
    ORTHO_TOL,
    canonical_pyr,
    compose_pyr,
    compose_rpy,
    is_rotation,
    project_axes,
    random_rotation,
    read_labels,
    rotate_image_label,
)
from rotkit import labels
from rotkit.augment import pose_stream
from rotkit.core import _matrix, _nearest_rotation, _quat_to_matrix
from rotkit.labels import FILE_ORTHO_TOL, record_from_dict

BAND = 10 * GIMBAL_EPS
angles = st.floats(-math.pi, math.pi, allow_nan=False)
offsets = st.floats(-BAND, BAND, allow_nan=False)
haar = st.integers(0, 2**32).map(lambda seed: random_rotation(pose_stream(seed)))
# yaw (pitch for rpy) within +/-10 GIMBAL_EPS of +/-90 deg
band = st.tuples(st.sampled_from((compose_pyr, compose_rpy)), angles,
                 st.sampled_from((1.0, -1.0)), offsets, angles).map(
    lambda t: t[0]((t[1], t[2] * math.pi / 2 + t[3], t[4]))
)
# how a stored rotation was perturbed: not at all, by float32 rounding, or
# by Gaussian noise of a scale from 1e-10 to FILE_ORTHO_TOL (log-uniform)
perturbations = st.one_of(
    st.just(None),
    st.just(np.float32),
    st.tuples(st.floats(-10.0, math.log10(FILE_ORTHO_TOL)), st.integers(0, 2**32)),
)
rows = st.lists(st.tuples(st.one_of(haar, band), perturbations), min_size=1, max_size=24)

# Fixed from a sampling run of 15k Haar and Gimbal-band rotations at each
# perturbation (worst residual 6.7e-16, worst entry 5.5e-15 from the SVD
# factor, worst excess over the distance bound 5.3e-16), with headroom.
# The absolute 1e-14 in the distance bound is the SVD factor's own
# rounding: just past ORTHO_TOL an input lies only about 5e-10 from it.
REPAIRED_TOL = 1e-13
POLAR_TOL = 1e-14


def _perturbed(r, how):
    if how is None:
        return r
    if how is np.float32:
        return r.astype(np.float32).astype(float)
    exponent, seed = how
    return r + 10.0**exponent * np.random.default_rng(seed).normal(size=(3, 3))


def _polar(m):
    u, _, vt = np.linalg.svd(m)
    return u @ vt


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows)
def test_loose_rows_are_replaced_by_their_nearest_rotation(drawn):
    stored = [_perturbed(r, how) for r, how in drawn]
    stored = [m for m in stored if is_rotation(m, FILE_ORTHO_TOL)]  # what the reader accepts
    assume(stored)
    objs = [{"id": i, "rotation": m.ravel().tolist()} for i, m in enumerate(stored)]
    objs = json.loads(json.dumps(objs))
    chunk = labels._chunk_batched(objs)
    one_by_one = [record_from_dict(obj).rotation for obj in objs]
    assert chunk.rotations.tobytes() == np.array(one_by_one).tobytes()
    for m, got in zip(stored, chunk.rotations):
        if is_rotation(m, ORTHO_TOL):
            assert got.tobytes() == m.tobytes()
            continue
        assert is_rotation(got, REPAIRED_TOL)
        polar = _polar(m)
        assert np.abs(got - polar).max() <= POLAR_TOL
        assert np.linalg.norm(got - m) <= (1.0 + 1e-6) * np.linalg.norm(polar - m) + POLAR_TOL


def test_read_float32_labels_feed_the_library(tmp_path):
    # read_labels of float32-rounded rotations: canonical_pyr,
    # rotate_image_label and project_axes take each record's rotation, and
    # give what they give on the repaired matrix itself
    exact = [random_rotation(pose_stream(31, i)) for i in range(40)]
    exact += [compose_pyr((0.3, math.pi / 2 - 0.5 * GIMBAL_EPS, -0.2)),
              compose_rpy((0.1, -math.pi / 2, 0.7))]
    stored = [r.astype(np.float32).astype(float) for r in exact]
    assert not any(is_rotation(m, ORTHO_TOL) for m in stored)
    path = tmp_path / "f32.jsonl"
    path.write_text("".join(json.dumps({"id": i, "rotation": m.ravel().tolist()}) + "\n"
                            for i, m in enumerate(stored)))
    for rec, m in zip(read_labels(path), stored):
        repaired = _matrix(_nearest_rotation(m.ravel().tolist()))
        assert rec.rotation.tobytes() == repaired.tobytes()
        assert np.abs(repaired - _polar(m)).max() <= POLAR_TOL
        assert canonical_pyr(rec.rotation) == canonical_pyr(repaired)
        assert rotate_image_label(rec.rotation, 0.4).tobytes() == \
            rotate_image_label(repaired, 0.4).tobytes()
        for got, want in zip(project_axes(rec.rotation), project_axes(repaired)):
            assert got.tobytes() == want.tobytes()


def test_repaired_bytes_are_pinned():
    # 624 rotations from integer quaternions, built with correctly rounded
    # IEEE operations alone and rounded to float32 (528 fail ORTHO_TOL):
    # the repair is sums and products alone, so its bytes may not depend
    # on the BLAS kernel or numpy's SIMD level; this digest holds under
    # OPENBLAS_CORETYPE=Sandybridge and NPY_DISABLE_CPU_FEATURES="X86_V4 X86_V3"
    stored = []
    for q in itertools.product(range(-2, 3), repeat=4):
        if any(q):
            n = math.sqrt(sum(v * v for v in q))
            stored.append(_quat_to_matrix(*(v / n for v in q)).astype(np.float32).astype(float))
    assert sum(not is_rotation(m, ORTHO_TOL) for m in stored) == 528
    objs = [{"id": i, "rotation": m.ravel().tolist()} for i, m in enumerate(stored)]
    digest = hashlib.sha256(labels._chunk_batched(objs).rotations.tobytes()).hexdigest()
    assert digest == "c74f285f2a33ae67d654352e2c99300843c82a2eb3c302fe2940492f6f45e295"
