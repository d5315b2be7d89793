"""Seeded input generators for the analyze and register workloads.

Inputs are made with plain numpy (see ref.py), never with rotkit, so the
program under test only ever sees finished files.
"""

import json

import numpy as np

import ref

# Share of analyze truths placed within +/-10 GIMBAL_EPS of yaw +/-90 deg,
# so that both the locked branch and its near side are exercised.
GIMBAL_BAND_SHARE = 0.05
BAND_HALF_WIDTH = 10 * ref.GIMBAL_EPS
# Prediction classes: (name, share).  Identical pairs expose the arccos
# floor of the geodesic metric, small-angle pairs its loss of digits
# below 1e-3 rad, near-pi pairs the other end of its range.
PAIR_CLASSES = (("generic", 0.65), ("identical", 0.10), ("small", 0.15), ("near_pi", 0.10))
LANDMARKS = 68
CAMERAS = 31


def _record(rec_id, m, pyr, rpy, gimbal):
    obj = {
        "id": rec_id,
        "image_path": f"img/{rec_id}.jpg",
        "rotation": m.reshape(9).tolist(),
        "euler_pyr_deg": np.degrees(pyr).tolist(),
        "euler_rpy_deg": np.degrees(rpy).tolist(),
    }
    if gimbal:
        obj["gimbal"] = True
    return json.dumps(obj)


def write_annotated(path, ids, mats):
    """Write matrices with both Euler views, flagged where either view locks."""
    pyr, lock_pyr = ref.extract_pyr(mats)
    rpy, lock_rpy = ref.extract_rpy(mats)
    gimbal = lock_pyr | lock_rpy
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(len(ids)):
            fh.write(_record(ids[i], mats[i], pyr[i], rpy[i], bool(gimbal[i])) + "\n")


def analyze_corpus(seed, n, truth_path, pred_path):
    """TRUTH: Haar rotations plus a Gimbal band; PRED: TRUTH perturbed by class.

    PRED is written in a shuffled order, so eval pairs records by id.
    Returns (ids, truth, pred_ids_in_file_order, pred_in_file_order).
    """
    rng = np.random.default_rng([seed, 1])
    truth = ref.haar(rng, n)
    n_band = round(GIMBAL_BAND_SHARE * n)
    band = rng.choice(n, n_band, replace=False)
    yaw = rng.choice([-1.0, 1.0], n_band) * ref.HALF_PI + rng.uniform(
        -BAND_HALF_WIDTH, BAND_HALF_WIDTH, n_band
    )
    truth[band] = ref.compose_pyr(
        rng.uniform(-ref.HALF_PI, ref.HALF_PI, n_band), yaw,
        rng.uniform(-ref.HALF_PI, ref.HALF_PI, n_band),
    )

    names = [c for c, _ in PAIR_CLASSES]
    cls = rng.choice(len(names), n, p=[s for _, s in PAIR_CLASSES])
    angle = np.select(
        [cls == names.index("small"), cls == names.index("near_pi")],
        [10.0 ** rng.uniform(-8, -3, n), np.pi - 10.0 ** rng.uniform(-6, -2, n)],
        rng.uniform(0.0, 0.6, n),
    )
    axis = rng.normal(size=(n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    pred = ref.axis_angle(axis, angle) @ truth
    identical = cls == names.index("identical")
    pred[identical] = truth[identical]

    ids = [f"img_{i:06d}" for i in range(n)]
    order = rng.permutation(n)
    write_annotated(truth_path, ids, truth)
    pred_ids = [ids[i] for i in order]
    write_annotated(pred_path, pred_ids, pred[order])
    return ids, truth, pred_ids, pred[order]


def register_frames(seed, frames, path):
    """Noisy 68-landmark frames of a fixed template under planted rotations.

    Frames see the template rotated, translated and perturbed by 1 mm
    Gaussian noise; each frame is assigned one of 31 camera extrinsics.
    """
    rng = np.random.default_rng([seed, 2])
    template = rng.normal(size=(LANDMARKS, 3)) * [70.0, 90.0, 50.0]
    truth = ref.haar(rng, frames)
    dst = (
        np.einsum("nab,kb->nka", truth, template)
        + rng.uniform(-500.0, 500.0, size=(frames, 1, 3))
        + rng.normal(scale=1.0, size=(frames, LANDMARKS, 3))
    )
    cams = ref.haar(rng, CAMERAS)
    np.savez(path, src=template, dst=dst, truth=truth, cams=cams,
             cam_index=np.arange(frames) % CAMERAS)
