"""rotkit command line.

Subcommands operate on JSON Lines label files and emit labels, CSV, or
SVG.  Every command is a pure function of its inputs, flags and seed:
identical invocations produce byte-identical output files.  Exit codes:
0 success, 1 validation error, 2 I/O error.
"""

import argparse
import math
import os
import re
import sys

import numpy as np

from .augment import AugmentOp, _augment_rows
from .core import _CONVENTIONS
from .coverage import SpiralSpec, _spiral_rows, euler_range_stats, pca_project
from .drawing import DrawSpec, _segments_rows, render_svg
from .euler import _euler_rows
from .evaluate import _evaluate_stacks
from .labels import (
    CHUNK_RECORDS,
    PoseRecord,
    ValidationError,
    _chunk_records,
    _image_path,
    _read_chunks,
    _read_stack,
    _write_file,
    write_labels,
)

_ID_SAFE = re.compile(r"[^A-Za-z0-9._-]")


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("ROTKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"ROTKIT_SEED must be an integer, got {env!r}") from None
    return 0


def _fmt(v: float) -> str:
    return repr(float(v))


def cmd_augment(args) -> int:
    if args.multiplier < 1:
        raise ValidationError(f"--multiplier must be at least 1, got {args.multiplier}")
    seed = _resolve_seed(args)
    budget = math.radians(args.budget_deg)
    mult = args.multiplier
    counts = {"rotate": 0, "flip": 0}

    if args.mode in ("rotate", "flip"):
        if args.angle_deg is None:
            raise ValidationError(f"--angle-deg is required for mode {args.mode}")
        fixed_op = AugmentOp(args.mode, math.radians(args.angle_deg))
    else:
        fixed_op = None

    n = 0

    def augmented():
        # one input chunk at a time; n is the index of its first record
        nonlocal n
        for chunk in _read_chunks(args.input):
            rotations, ops = _augment_rows(chunk.rotations, fixed_op, budget, seed, n, mult)
            n += len(chunk.ids)
            records = _chunk_records(chunk)
            for k, (rotation, op) in enumerate(zip(rotations, ops)):
                rec, j = records[k // mult], k % mult
                counts[op.kind] += 1
                yield PoseRecord(
                    id=rec.id if mult == 1 else f"{rec.id}#a{j}",
                    rotation=rotation,
                    image_path=rec.image_path,
                    provenance=rec.provenance + [op.as_dict()],
                )

    write_labels(augmented(), args.output)
    print(
        f"augment: {n} records -> {n * mult} "
        f"({counts['rotate']} rotate, {counts['flip']} flip)"
    )
    return 0


def cmd_convert(args) -> int:
    n = n_gimbal = 0
    # target "euler_<name>" fills the records' "euler_<name>_deg" view
    convention, field_name = args.target.removeprefix("euler_"), f"{args.target}_deg"

    def converted():
        # _chunk_records builds fresh records, so an Euler target sets its
        # view in place; "matrix" uses PoseRecord(...) rather than
        # dataclasses.replace, which costs several times more per record
        nonlocal n, n_gimbal
        for chunk in _read_chunks(args.input):
            records = _chunk_records(chunk)
            if args.target == "matrix":
                records = [
                    PoseRecord(rec.id, rec.rotation, rec.image_path, provenance=rec.provenance)
                    for rec in records
                ]
            else:
                angles, locked = _euler_rows(chunk.rotations, convention)
                # np.degrees is math.degrees' x * (180 / pi), value for value
                for rec, deg, lock in zip(records, np.degrees(angles).tolist(), locked.tolist()):
                    setattr(rec, field_name, tuple(deg))
                    rec.gimbal = lock or rec.gimbal
            n += len(records)
            n_gimbal += sum(rec.gimbal for rec in records)
            yield from records

    write_labels(converted(), args.output)
    print(f"convert: {n} records to {args.target} ({n_gimbal} gimbal)")
    return 0


def cmd_eval(args) -> int:
    pred_path, truth_path = args.input
    report = _evaluate_stacks(*_read_stack(pred_path), *_read_stack(truth_path))
    if args.output:
        text = "id,geodesic_rad\n" + "".join(
            f"{rec_id},{_fmt(dist)}\n" for rec_id, dist in report.per_record
        )
        _write_file(args.output, lambda fh: fh.write(text))
    print(
        f"eval: n={len(report.per_record)} mean={report.mean:.12g} "
        f"median={report.median:.12g} max={report.max:.12g} (radians)"
    )
    return 0


def cmd_spiral(args) -> int:
    pitch_min, pitch_max = (math.radians(v) for v in args.pitch_range)
    spec = SpiralSpec(
        count=args.count, turns=args.turns, pitch_min=pitch_min, pitch_max=pitch_max
    )
    meta = {
        "kind": "spiral",
        "count": spec.count,
        "turns": spec.turns,
        "pitch_min_deg": args.pitch_range[0],
        "pitch_max_deg": args.pitch_range[1],
    }

    def poses():
        for start in range(0, spec.count, CHUNK_RECORDS):
            stack = _spiral_rows(spec, start, min(spec.count, start + CHUNK_RECORDS))
            for i, r in enumerate(stack, start):
                yield PoseRecord(
                    id=f"spiral_{i:06d}", rotation=r, provenance=[dict(meta, index=i)]
                )

    write_labels(poses(), args.output)
    print(f"spiral: wrote {spec.count} zero-roll poses")
    return 0


def cmd_pca(args) -> int:
    ids, rotations = _read_stack(args.input)
    if len(ids) < 2:
        raise ValidationError("pca needs at least 2 records")
    result = pca_project(rotations.reshape(-1, 9), k=3)
    text = "id,pc1,pc2,pc3\n" + "".join(
        f"{rec_id},{_fmt(row[0])},{_fmt(row[1])},{_fmt(row[2])}\n"
        for rec_id, row in zip(ids, result.projected)
    )
    _write_file(args.output, lambda fh: fh.write(text))
    ev = result.explained_variance
    print(
        f"pca: {len(ids)} records, explained variance "
        f"{ev[0]:.6g} {ev[1]:.6g} {ev[2]:.6g}"
    )
    return 0


def cmd_stats(args) -> int:
    _, rotations = _read_stack(args.input)
    stats = euler_range_stats(rotations)
    if args.output:
        text = "angle,min_deg,max_deg\n" + "".join(
            f"{name},{_fmt(lo)},{_fmt(hi)}\n"
            for name, (lo, hi) in (
                ("pitch", stats.pitch_deg),
                ("yaw", stats.yaw_deg),
                ("roll", stats.roll_deg),
            )
        )
        _write_file(args.output, lambda fh: fh.write(text))
    print(
        f"stats: n={stats.count} "
        f"pitch [{stats.pitch_deg[0]:.6g}, {stats.pitch_deg[1]:.6g}] "
        f"yaw [{stats.yaw_deg[0]:.6g}, {stats.yaw_deg[1]:.6g}] "
        f"roll [{stats.roll_deg[0]:.6g}, {stats.roll_deg[1]:.6g}] deg"
    )
    return 0


def cmd_draw(args) -> int:
    # every chunk is read before any file is written: the file-name check
    # needs all ids
    ids, image_paths, stacks = [], [], []
    for chunk in _read_chunks(args.input):
        ids += chunk.ids
        image_paths += map(_image_path, chunk.objs)
        stacks.append(chunk.rotations)
    center = tuple(args.center) if args.center else (args.width / 2.0, args.height / 2.0)
    spec = DrawSpec(center=center, size=args.size)
    names = [_ID_SAFE.sub("_", rec_id) + ".svg" for rec_id in ids]
    ids_by_name = {}
    for rec_id, name in zip(ids, names):
        ids_by_name.setdefault(name, []).append(rec_id)
    for name, same in ids_by_name.items():
        if len(same) > 1:
            raise ValidationError(
                f"ids {', '.join(map(repr, same))} all map to file {name!r}"
            )
    os.makedirs(args.output, exist_ok=True)
    rows = (segs for stack in stacks for segs in _segments_rows(stack, spec))
    for name, href, segs in zip(names, image_paths, rows):
        svg = render_svg(segs, args.width, args.height, background_href=href)
        with open(os.path.join(args.output, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg)
    print(f"draw: wrote {len(ids)} SVG files to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotkit", description="Head-pose rotation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="apply 2D rotate/flip augmentations to labels")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--mode", choices=("random", "rotate", "flip"), default="random")
    p.add_argument("--budget-deg", type=float, default=20.0,
                   help="random mode: rotation within +/-budget, flip line within [90-budget, 90]")
    p.add_argument("--angle-deg", type=float, default=None,
                   help="fixed angle for rotate/flip modes, degrees")
    p.add_argument("--multiplier", type=int, default=1,
                   help="augmented outputs per input record")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (falls back to ROTKIT_SEED, then 0)")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("convert", help="populate a pose representation")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--target", choices=("matrix", *(f"euler_{name}" for name in _CONVENTIONS)),
                   required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("eval", help="mean geodesic error between two label files")
    p.add_argument("--input", nargs=2, metavar=("PREDICTIONS", "GROUND_TRUTH"), required=True)
    p.add_argument("--output", default=None, help="per-record CSV report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("spiral", help="generate a zero-roll pitch-yaw spiral")
    p.add_argument("--output", required=True)
    p.add_argument("--count", type=int, default=1440)
    p.add_argument("--turns", type=float, default=8.0)
    p.add_argument("--pitch-range", type=float, nargs=2, metavar=("MIN_DEG", "MAX_DEG"),
                   default=(-75.0, 75.0))
    p.set_defaults(func=cmd_spiral)

    p = sub.add_parser("pca", help="project flattened rotations to 3D by PCA")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="projection CSV")
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("stats", help="Euler range statistics of a label file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="range CSV")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("draw", help="render axis overlays as SVG")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--size", type=float, default=100.0)
    p.add_argument("--center", type=float, nargs=2, metavar=("X", "Y"), default=None)
    p.add_argument("--width", type=float, default=450.0)
    p.add_argument("--height", type=float, default=450.0)
    p.set_defaults(func=cmd_draw)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"rotkit: i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError) as exc:
        print(f"rotkit: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
