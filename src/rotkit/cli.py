"""rotkit command line.

Subcommands operate on JSON Lines label files and emit labels, CSV, or
SVG.  Every command is a pure function of its inputs, flags and seed:
identical invocations produce byte-identical output files on any BLAS
kernel, except `pca` (LAPACK's eigh); across CPUs, glibc's FMA sin, cos
and atan2 can still change last bits.
Every rotation a command sees passes ORTHO_TOL: the reader replaces a
looser one that label files admit by its nearest rotation.
Exit codes: 0 success, 1 validation error, 2 I/O error.

Importing this module and building the parser load argparse and the
numpy-free table of Euler conventions (_conventions) alone, so `--help`
and usage errors never load numpy.  Each command imports numpy and the
rotkit modules it uses when it starts, in the parent, before any worker
forks.
"""

import argparse
import math
import os
import re
import sys

from ._conventions import _CONVENTIONS

_ID_SAFE = re.compile(r"[^A-Za-z0-9._-]")


def _resolve_seed(args) -> int:
    from .labels import ValidationError

    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("ROTKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"ROTKIT_SEED must be an integer, got {env!r}") from None
    return 0


def _write_chunks(path, output, work):
    """Write the texts of work(start, chunk) -> (text, count, tally) over the
    chunks of label file `path` (_map_chunks) to `output` (_write_file);
    return the summed counts and tallies.  An unwritable output is reported
    before a missing input."""
    from .labels import _map_chunks, _write_file

    n = tally = 0

    def write(fh):
        nonlocal n, tally
        for text, count, chunk_tally in _map_chunks(path, work):
            fh.write(text)
            n += count
            tally += chunk_tally

    _write_file(output, write)
    return n, tally


# A CSV field that has to be quoted (RFC 4180).
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _write_csv(path, header, names, *columns) -> None:
    """Write a CSV report (_write_file): the header line, then per name a row
    of the name and its value in each column as repr(float).  A name with
    a comma, a double quote or a line break is quoted as RFC 4180 says."""
    import numpy as np

    from .labels import _write_file

    if _CSV_SPECIAL.search("".join(names)):
        names = [
            '"' + name.replace('"', '""') + '"' if _CSV_SPECIAL.search(name) else name
            for name in names
        ]
    values = (map(repr, np.asarray(column, dtype=float).tolist()) for column in columns)
    text = "\n".join([header, *map(",".join, zip(names, *values))]) + "\n"
    _write_file(path, lambda fh: fh.write(text))


def cmd_augment(args) -> int:
    import numpy as np

    from .augment import AugmentOp, _check_budget, _image_rows, _random_ops
    from .labels import ValidationError, _encode_columns

    if args.multiplier < 1:
        raise ValidationError(f"--multiplier must be at least 1, got {args.multiplier}")
    seed = _resolve_seed(args)
    mult = args.multiplier

    if args.mode in ("rotate", "flip"):
        if args.angle_deg is None:
            raise ValidationError(f"--angle-deg is required for mode {args.mode}")
        fixed_op = AugmentOp(args.mode, math.radians(args.angle_deg))
    else:
        fixed_op = None
        budget = _check_budget(math.radians(args.budget_deg))

    def work(start, chunk):
        # one input chunk, checked by the reader: its lines and its rotate count
        n = len(chunk.ids)
        if fixed_op is None:
            rotate, angles = _random_ops(budget, seed, start, n, mult)
        else:
            rotate = np.full(n * mult, fixed_op.kind == "rotate")
            angles = np.full(n * mult, fixed_op.angle)
        stack = _image_rows(np.repeat(chunk.rotations, mult, axis=0), rotate, angles)
        if mult == 1:
            ids = chunk.ids
        else:
            ids = [f"{rec_id}#a{j}" for rec_id in chunk.ids for j in range(mult)]
        # AugmentOp.as_dict of each op; np.degrees is math.degrees, value for value
        ops = zip(rotate.tolist(), np.degrees(angles).tolist())
        provenance = [
            prov + [{"kind": "rotate" if r else "flip", "angle_deg": deg}]
            for prov, (r, deg) in zip(_repeat_rows(chunk.provenance, mult), ops)
        ]
        text = _encode_columns(
            ids, stack, _repeat_rows(chunk.image_paths, mult), provenance=provenance
        )
        return text, n, int(rotate.sum())

    n, n_rotate = _write_chunks(args.input, args.output, work)
    print(f"augment: {n} records -> {n * mult} ({n_rotate} rotate, {n * mult - n_rotate} flip)")
    return 0


def _repeat_rows(column: list, times: int) -> list:
    # each entry of column `times` times in a row
    return column if times == 1 else [value for value in column for _ in range(times)]


def cmd_convert(args) -> int:
    import numpy as np

    from .euler import _euler_rows
    from .labels import _encode_columns

    # target "euler_<name>" fills the records' "euler_<name>_deg" view and
    # flags locked rows; "matrix" drops every view and gimbal flag
    convention = args.target.removeprefix("euler_")

    def work(start, chunk):
        views = gimbal = None
        if args.target != "matrix":
            angles, locked = _euler_rows(chunk.rotations, convention)
            views = list(chunk.views)
            # np.degrees is math.degrees' x * (180 / pi), value for value
            views[list(_CONVENTIONS).index(convention)] = np.degrees(angles).tolist()
            gimbal = [lock or flag for lock, flag in zip(locked.tolist(), chunk.gimbal)]
        text = _encode_columns(*chunk._replace(views=views, gimbal=gimbal))
        return text, len(chunk.ids), sum(gimbal or ())

    n, n_gimbal = _write_chunks(args.input, args.output, work)
    print(f"convert: {n} records to {args.target} ({n_gimbal} gimbal)")
    return 0


def cmd_eval(args) -> int:
    from .evaluate import _evaluate_stacks
    from .labels import _read_stack

    (pred_ids, _, pred), (truth_ids, _, truth) = map(_read_stack, args.input)
    report = _evaluate_stacks(pred_ids, pred, truth_ids, truth)
    if args.output:
        _write_csv(args.output, "id,geodesic_rad", *zip(*report.per_record))
    print(
        f"eval: n={len(report.per_record)} mean={report.mean:.12g} "
        f"median={report.median:.12g} max={report.max:.12g} (radians)"
    )
    return 0


def cmd_spiral(args) -> int:
    from .coverage import SpiralSpec, _spiral_rows
    from .labels import _encode_columns, _map_ranges, _write_file

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

    def work(start, stop):
        return _encode_columns(
            [f"spiral_{i:06d}" for i in range(start, stop)],
            _spiral_rows(spec, start, stop),
            provenance=[[dict(meta, index=i)] for i in range(start, stop)],
        )

    _write_file(args.output, lambda fh: fh.writelines(_map_ranges(spec.count, work)))
    print(f"spiral: wrote {spec.count} zero-roll poses")
    return 0


def cmd_pca(args) -> int:
    from .coverage import pca_project
    from .evaluate import _rows_by_id
    from .labels import ValidationError, _read_stack

    ids, _, rotations = _read_stack(args.input)
    _rows_by_id(ids, args.input)  # its rows are keyed by id: refuse duplicates
    if len(ids) < 2:
        raise ValidationError("pca needs at least 2 records")
    result = pca_project(rotations.reshape(-1, 9), k=3)
    _write_csv(args.output, "id,pc1,pc2,pc3", ids, *result.projected.T)
    ev = result.explained_variance
    print(
        f"pca: {len(ids)} records, explained variance "
        f"{ev[0]:.6g} {ev[1]:.6g} {ev[2]:.6g}"
    )
    return 0


def cmd_stats(args) -> int:
    from .coverage import euler_range_stats
    from .labels import _read_stack

    _, _, rotations = _read_stack(args.input)
    stats = euler_range_stats(rotations)
    if args.output:
        columns = zip(stats.pitch_deg, stats.yaw_deg, stats.roll_deg)
        _write_csv(args.output, "angle,min_deg,max_deg", ("pitch", "yaw", "roll"), *columns)
    print(
        f"stats: n={stats.count} "
        f"pitch [{stats.pitch_deg[0]:.6g}, {stats.pitch_deg[1]:.6g}] "
        f"yaw [{stats.yaw_deg[0]:.6g}, {stats.yaw_deg[1]:.6g}] "
        f"roll [{stats.roll_deg[0]:.6g}, {stats.roll_deg[1]:.6g}] deg"
    )
    return 0


def cmd_draw(args) -> int:
    from .drawing import _NOT_XML_CHAR, DrawSpec, _check_size, _segments_rows, render_svg
    from .labels import CHUNK_RECORDS, ValidationError, _read_stack

    # the flags are checked before the input is read, and every record
    # before any file is written: each file name's length (in bytes, as the
    # names are ASCII) against the limit of the nearest existing directory,
    # each image path, then the names together for collisions
    _check_size(args.width, args.height)
    center = tuple(args.center) if args.center else (args.width / 2.0, args.height / 2.0)
    spec = DrawSpec(center=center, size=args.size)
    ids, image_paths, rotations = _read_stack(args.input)
    names = [_ID_SAFE.sub("_", rec_id) + ".svg" for rec_id in ids]
    parent, ids_by_name = os.path.abspath(args.output), {}
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    name_max = os.pathconf(parent, "PC_NAME_MAX") if hasattr(os, "pathconf") else 255
    for rec_id, name, href in zip(ids, names, image_paths):
        if len(name) > name_max:
            raise ValidationError(f"id {rec_id!r}: file name longer than {name_max} bytes")
        if href is not None and _NOT_XML_CHAR.search(href):
            raise ValidationError(f"record {rec_id!r}: image_path {href!r} is not valid XML 1.0")
        ids_by_name.setdefault(name, []).append(rec_id)
    for name, same in ids_by_name.items():
        if len(same) > 1:
            raise ValidationError(
                f"ids {', '.join(map(repr, same))} all map to file {name!r}"
            )
    os.makedirs(args.output, exist_ok=True)
    rows = (segs for start in range(0, len(ids), CHUNK_RECORDS)
            for segs in _segments_rows(rotations[start:start + CHUNK_RECORDS], spec))
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
    except ValueError as exc:  # a ValidationError too
        print(f"rotkit: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
