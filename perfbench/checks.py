"""Output checks, each against an independent numpy reference (ref.py).

Every check returns (ok, detail).  Tolerances sit well above the few-ulp
differences between numpy and math.* evaluation orders and well below any
real error, so a change that moves outputs by an ulp still passes while a
wrong record fails.
"""

import csv
import json
import os
import re

import numpy as np

import ref

SAME = 1e-12  # two evaluations of the same closed form
EULER_TOL = 1e-6  # rotkit.labels.EULER_CONSISTENCY_TOL
GIMBAL_TOL = 2 * ref.GIMBAL_EPS  # rotkit.labels.GIMBAL_CONSISTENCY_TOL
EVAL_TOL = 1e-6  # far above the 3e-8 arccos floor, far below any real pose error
HORN_TOL = 1e-9
DRAW_CENTER, DRAW_SIZE = 225.0, 100.0  # rotkit draw defaults: 450 x 450 canvas
_LINE = re.compile(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"')


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def rotations(objs):
    return np.array([o["rotation"] for o in objs], dtype=float).reshape(-1, 3, 3)


def _result(failures, n, what):
    if failures:
        return False, f"{len(failures)} of {n} {what} wrong, first: {failures[0]}"
    return True, f"{n} {what} ok"


def spiral(path, count):
    objs = read_jsonl(path)
    if len(objs) != count:
        return False, f"{len(objs)} records, expected {count}"
    dev = np.abs(rotations(objs) - ref.spiral(count)).max(axis=(1, 2))
    bad = [(o["id"], float(d)) for o, d in zip(objs, dev) if d > SAME]
    bad += [(o["id"], "id") for i, o in enumerate(objs) if o["id"] != f"spiral_{i:06d}"]
    return _result(bad, count, "spiral poses")


def augment(in_path, out_path, multiplier, budget_deg):
    """Re-apply each record's last provenance op to its input rotation."""
    src, out = read_jsonl(in_path), read_jsonl(out_path)
    if len(out) != multiplier * len(src):
        return False, f"{len(out)} records, expected {multiplier * len(src)}"
    base = np.repeat(rotations(src), multiplier, axis=0)
    ops = [o["provenance"][-1] for o in out]
    angle = np.radians([float(op["angle_deg"]) for op in ops])
    is_rot = np.array([op["kind"] == "rotate" for op in ops])
    expect = np.where(is_rot[:, None, None], ref.rotate_label(base, angle), ref.flip_label(base, angle))
    dev = np.abs(rotations(out) - expect).max(axis=(1, 2))
    lo = np.where(is_rot, -np.radians(budget_deg), np.radians(90.0 - budget_deg))
    hi = np.where(is_rot, np.radians(budget_deg), np.radians(90.0))
    bad = []
    for k, o in enumerate(out):
        s = src[k // multiplier]
        if o["id"] != f"{s['id']}#a{k % multiplier}" or o["provenance"][:-1] != s.get("provenance", []):
            bad.append((o["id"], "id or provenance"))
        elif ops[k]["kind"] not in ("rotate", "flip") or not lo[k] <= angle[k] <= hi[k]:
            bad.append((o["id"], f"op {ops[k]}"))
        elif dev[k] > SAME:
            bad.append((o["id"], float(dev[k])))
    return _result(bad, len(out), "augmented records")


def convert(in_path, out_path):
    """Matrices unchanged; euler_pyr_deg recomposes within the file tolerance."""
    src, out = read_jsonl(in_path), read_jsonl(out_path)
    if [o["id"] for o in out] != [s["id"] for s in src]:
        return False, "ids differ from the input"
    m = rotations(out)
    if not np.array_equal(m, rotations(src)):
        return False, "rotations changed"
    pyr = np.radians([o["euler_pyr_deg"] for o in out])
    dist = ref.geodesic(ref.compose_pyr(*pyr.T), m)
    tol = np.where([o.get("gimbal", False) for o in out], GIMBAL_TOL, EULER_TOL)
    bad = [(o["id"], float(d)) for o, d, t in zip(out, dist, tol) if not d <= t]
    return _result(bad, len(out), "euler views")


def draw(in_path, svg_dir):
    """One SVG per record, three <line>s each, endpoints at center + size * axis."""
    objs = read_jsonl(in_path)
    names = sorted(os.listdir(svg_dir))
    if len(names) != len(objs):
        return False, f"{len(names)} SVG files for {len(objs)} records"
    m = rotations(objs)
    # image-space axes: columns of T R T with T = diag(1, -1, 1), first two rows
    axes = np.stack([m[:, 0, :], -m[:, 1, :]], axis=1) * np.array([1.0, -1.0, 1.0])
    bad = []
    for k, o in enumerate(objs):
        name = re.sub(r"[^A-Za-z0-9._-]", "_", o["id"]) + ".svg"
        try:
            with open(os.path.join(svg_dir, name), encoding="utf-8") as fh:
                lines = _LINE.findall(fh.read())
        except FileNotFoundError:
            bad.append((o["id"], "missing"))
            continue
        if len(lines) != 3:
            bad.append((o["id"], f"{len(lines)} lines"))
            continue
        got = np.array(lines, dtype=float)
        want = np.column_stack([
            np.full(3, DRAW_CENTER), np.full(3, DRAW_CENTER),
            DRAW_CENTER + DRAW_SIZE * axes[k, 0], DRAW_CENTER + DRAW_SIZE * axes[k, 1],
        ])
        if np.abs(got - want).max() > 1e-9:
            bad.append((o["id"], float(np.abs(got - want).max())))
    return _result(bad, len(objs), "SVG files")


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def evaluate(csv_path, stdout, ids, truth, pred_ids, pred):
    """Per-record, mean and max geodesic against the extended-precision reference.

    Returns (ok, detail, max_abs_dev_rad).
    """
    expect = dict(zip(pred_ids, ref.geodesic(pred, truth[[int(i[4:]) for i in pred_ids]])))
    rows = _read_csv(csv_path)
    if rows[0] != ["id", "geodesic_rad"] or [r[0] for r in rows[1:]] != pred_ids:
        return False, "CSV header or ids differ", float("nan")
    got = np.array([float(r[1]) for r in rows[1:]])
    want = np.array([expect[i] for i in pred_ids])
    dev = np.abs(got - want)
    summary = re.search(r"mean=(\S+) median=(\S+) max=(\S+)", stdout)
    if summary is None:
        return False, "no eval summary line", float(dev.max())
    mean, _, mx = (float(v) for v in summary.groups())
    bad = [(i, float(d)) for i, d in zip(pred_ids, dev) if not d <= EVAL_TOL]
    if not abs(mean - want.mean()) <= EVAL_TOL or not abs(mx - want.max()) <= EVAL_TOL:
        bad.append(("summary", f"mean {mean} max {mx} vs {want.mean()} {want.max()}"))
    ok, detail = _result(bad, len(pred_ids), "geodesic errors")
    return ok, f"{detail}, max |rotkit - reference| {dev.max():.3e} rad", float(dev.max())


def stats(csv_path, truth):
    rows = _read_csv(csv_path)
    e, _ = ref.extract_pyr(truth)
    e = np.degrees(e)
    want = {"pitch": e[:, 0], "yaw": e[:, 1], "roll": e[:, 2]}
    if rows[0] != ["angle", "min_deg", "max_deg"] or [r[0] for r in rows[1:]] != list(want):
        return False, "CSV header or rows differ"
    bad = []
    for name, lo, hi in rows[1:]:
        dev = max(abs(float(lo) - want[name].min()), abs(float(hi) - want[name].max()))
        if not dev <= 1e-9:
            bad.append((name, dev))
    return _result(bad, 3, "angle ranges")


def pca(csv_path, ids, truth):
    """Projections onto the top three eigh components, up to sign.

    Each component is determined only to the solver's tolerance divided
    by its eigenvalue gap, so the allowed deviation widens with 1 / gap.
    """
    x = truth.reshape(len(truth), 9)
    centered = x - x.mean(axis=0)
    values, vectors = np.linalg.eigh(centered.T @ centered / (len(x) - 1))
    values, vectors = values[::-1], vectors[:, ::-1]
    want = centered @ vectors[:, :3]
    gaps = [min(abs(values[j] - values[k]) for k in range(9) if k != j) for j in range(3)]
    rows = _read_csv(csv_path)
    if rows[0] != ["id", "pc1", "pc2", "pc3"] or [r[0] for r in rows[1:]] != ids:
        return False, "CSV header or ids differ"
    got = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    bad = []
    for j in range(3):
        dev = min(np.abs(got[:, j] - want[:, j]).max(), np.abs(got[:, j] + want[:, j]).max())
        tol = 1e-9 + 1e-10 / gaps[j]
        if not dev <= tol:
            bad.append((f"pc{j + 1}", f"{dev:.3e} > {tol:.3e}"))
    return _result(bad, 3, "components")


def register(frames_path, out_path):
    """Horn against SVD/Kabsch, Panoptic against its product, geodesic against ref."""
    with np.load(frames_path) as f, np.load(out_path) as o:
        src, dst, truth, cams, cam = f["src"], f["dst"], f["truth"], f["cams"], f["cam_index"]
        horn, pan, geo = o["horn"], o["pan"], o["geo"]
    if len(horn) != len(dst):
        return False, f"{len(horn)} results for {len(dst)} frames"
    e_ref = np.diag([1.0, -1.0, -1.0])
    dev_h = np.abs(horn - ref.kabsch(src, dst)).max(axis=(1, 2))
    dev_p = np.abs(pan - e_ref @ cams[cam] @ horn).max(axis=(1, 2))
    dev_g = np.abs(geo - ref.geodesic(pan, e_ref @ cams[cam] @ truth))
    bad = [(i, float(a), float(b), float(c)) for i, (a, b, c) in enumerate(zip(dev_h, dev_p, dev_g))
           if not (a <= HORN_TOL and b <= SAME and c <= EVAL_TOL)]
    return _result(bad, len(dst), "frames")
