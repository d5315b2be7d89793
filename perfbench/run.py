"""rotkit benchmark: seeded workloads over the CLI and the Horn path.

Usage, from the repository root:

    python3 perfbench/run.py --workload build|analyze --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads (why each was chosen is in BENCHMARK.json):

  build     spiral --count 20000 -> augment --mode random --multiplier 2
            -> convert --target euler_pyr -> draw on every 8th record.
  analyze   eval PRED TRUTH (20000 annotated records each, both Euler
            views), stats TRUTH, pca TRUTH, then register_worker.py:
            horn_rotation, panoptic_rotation and geodesic_distance on
            2500 frames of 68 noisy landmarks.  Inputs come from numpy.

Each command runs in its own child process, one at a time, timed from
outside, so at most two processes are alive.  With --trace 0 the run
repeats whole passes while their summed wall time stays within --seconds
(at least MIN_PASSES passes) and reports
end-to-end metrics as medians over passes.  With --trace 1 it runs one
untraced and one traced pass (trace.py) and reports per-layer metrics.
Every output of the first pass is checked against an independent numpy
reference (checks.py); later passes must reproduce it byte for byte.

The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the input properties, per-command times, checks and stamps.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks
import gen
import ref

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
MIN_PASSES = 2
SETUP_REPS = 3
RUN_LIMIT_S = 165  # children still running this long after start are killed
MEM_SAMPLE = 2000  # records read under tracemalloc for labels.bytes_per_record
AUGMENT_BUDGET_DEG = 20.0  # rotkit augment's default --budget-deg

FULL = {"spiral": 20000, "multiplier": 2, "draw_every": 8, "analyze": 20000, "frames": 2500}
SMALL = {"spiral": 400, "multiplier": 2, "draw_every": 8, "analyze": 800, "frames": 60}

LAYERS = ("cli", "labels", "core", "euler", "augment", "coverage", "eigen",
          "drawing", "evaluate", "registration")
COMMANDS = ("spiral", "augment", "convert", "draw", "eval", "stats", "pca")


def annotated_share(objs):
    """Share of decoded records that carry an Euler view (validated on read)."""
    return sum("euler_pyr_deg" in o or "euler_rpy_deg" in o for o in objs) / len(objs)


class Step:
    """One child process of a pass: a rotkit command or the register worker."""

    def __init__(self, name, args, records, before=None):
        self.name, self.args, self.records, self.before = name, args, records, before


class Runner:
    """Starts one child at a time and measures its wall time and peak RSS."""

    def __init__(self, root, work):
        self.root, self.work = root, work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONPYCACHEPREFIX=os.path.join(root, WORK_DIR, "pycache"))

    def spawn(self, argv, tag):
        """Run argv to completion and describe the child as a dict."""
        out_path = os.path.join(self.work, f"{tag}.out")
        with open(out_path, "wb") as out, open(os.path.join(self.work, f"{tag}.err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            watchdog = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        return {"wall_s": t1 - t0, "cpu_s": usage.ru_utime + usage.ru_stime, "t_spawn": t0,
                "t_reap": t1, "maxrss_kb": usage.ru_maxrss, "rc": proc.returncode, "stdout": stdout}

    def argv(self, step, spans=None):
        if step.name == "register":
            script = os.path.join(BENCH_DIR, "register_worker.py")
            head = [script] if spans is None else [os.path.join(BENCH_DIR, "trace.py"), spans, "worker"]
        else:
            head = ["-m", "rotkit.cli"] if spans is None else [os.path.join(BENCH_DIR, "trace.py"), spans, "cli"]
        return [sys.executable, *head, *step.args]


class Build:
    """spiral -> augment -> convert -> draw: the write-heavy preparation path."""

    name = "build"

    def __init__(self, work, seed, sizes):
        self.seed, self.sizes = seed, sizes
        p = lambda f: os.path.join(work, f)  # noqa: E731
        self.spiral, self.aug, self.conv, self.slice, self.svg = (
            p("spiral.jsonl"), p("augmented.jsonl"), p("converted.jsonl"), p("slice.jsonl"), p("svg"))
        self.offset = seed % sizes["draw_every"]

    def prepare(self):
        pass  # the spiral is generated by the first, timed, command

    def _slice(self):
        shutil.rmtree(self.svg, ignore_errors=True)
        every = self.sizes["draw_every"]
        with open(self.conv, encoding="utf-8") as src, open(self.slice, "w", encoding="utf-8") as dst:
            dst.writelines(line for k, line in enumerate(src) if k % every == self.offset)

    def steps(self):
        n, mult = self.sizes["spiral"], self.sizes["multiplier"]
        return [
            Step("spiral", ["spiral", "--count", str(n), "--output", self.spiral], n),
            Step("augment", ["augment", "--input", self.spiral, "--output", self.aug, "--mode", "random",
                             "--multiplier", str(mult), "--seed", str(self.seed)], n),
            Step("convert", ["convert", "--input", self.aug, "--output", self.conv,
                             "--target", "euler_pyr"], n * mult),
            Step("draw", ["draw", "--input", self.slice, "--output", self.svg],
                 len(range(self.offset, n * mult, self.sizes["draw_every"])), before=self._slice),
        ]

    def output_checks(self):
        return {
            "spiral": lambda: checks.spiral(self.spiral, self.sizes["spiral"]),
            "augment": lambda: checks.augment(self.spiral, self.aug, self.sizes["multiplier"],
                                              AUGMENT_BUDGET_DEG),
            "convert": lambda: checks.convert(self.aug, self.conv),
            "draw": lambda: checks.draw(self.slice, self.svg),
        }

    def outputs(self):
        svgs = sorted(os.listdir(self.svg)) if os.path.isdir(self.svg) else []
        return [self.spiral, self.aug, self.conv] + [os.path.join(self.svg, s) for s in svgs]

    def properties(self):
        inputs = {"augment": self.spiral, "convert": self.aug, "draw": self.slice}
        objs = {cmd: checks.read_jsonl(path) for cmd, path in inputs.items()}
        pyr, locked = ref.extract_pyr(checks.rotations(objs["convert"]))
        return {
            "gimbal_band_share": float(np.mean(np.abs(np.cos(pyr[:, 1])) <= gen.BAND_HALF_WIDTH)),
            "gimbal_locked_share": float(locked.mean()),
            "annotated_share": {cmd: annotated_share(o) for cmd, o in objs.items()},
            "bytes_per_input_record": {cmd: os.path.getsize(inputs[cmd]) / len(o) for cmd, o in objs.items()},
        }

    def mem_file(self):
        return self.aug

    def corrupt(self):
        objs = checks.read_jsonl(self.conv)
        objs[0]["euler_pyr_deg"][2] += 1.0
        with open(self.conv, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(o) + "\n" for o in objs)


class Analyze:
    """eval, stats and pca on annotated records, then Horn registration of frames.

    The read-heavy analysis path: decoding and validating annotated
    records, the geodesic metric, extraction and PCA, plus the library
    path through registration and eigen that no CLI command reaches.
    """

    name = "analyze"

    def __init__(self, work, seed, sizes):
        self.seed, self.n, self.frames = seed, sizes["analyze"], sizes["frames"]
        p = lambda f: os.path.join(work, f)  # noqa: E731
        self.truth_path, self.pred_path = p("truth.jsonl"), p("pred.jsonl")
        self.eval_csv, self.stats_csv, self.pca_csv = p("eval.csv"), p("stats.csv"), p("pca.csv")
        self.frames_path, self.reg_out = p("frames.npz"), p("register_out.npz")
        self.max_abs_dev = float("nan")

    def prepare(self):
        self.ids, self.truth, self.pred_ids, self.pred = gen.analyze_corpus(
            self.seed, self.n, self.truth_path, self.pred_path)
        gen.register_frames(self.seed, self.frames, self.frames_path)

    def steps(self):
        n = self.n
        return [
            Step("eval", ["eval", "--input", self.pred_path, self.truth_path, "--output", self.eval_csv], 2 * n),
            Step("stats", ["stats", "--input", self.truth_path, "--output", self.stats_csv], n),
            Step("pca", ["pca", "--input", self.truth_path, "--output", self.pca_csv], n),
            Step("register", [self.frames_path, self.reg_out], self.frames),
        ]

    def _check_eval(self):
        ok, detail, self.max_abs_dev = checks.evaluate(
            self.eval_csv, self.stdout.get("eval", ""), self.ids, self.truth, self.pred_ids, self.pred)
        return ok, detail

    def output_checks(self):
        return {
            "eval": self._check_eval,
            "stats": lambda: checks.stats(self.stats_csv, self.truth),
            "pca": lambda: checks.pca(self.pca_csv, self.ids, self.truth),
            "register": lambda: checks.register(self.frames_path, self.reg_out),
        }

    def outputs(self):
        return [self.eval_csv, self.stats_csv, self.pca_csv, self.reg_out]

    def properties(self):
        pyr, locked = ref.extract_pyr(self.truth)
        order = [int(i[4:]) for i in self.pred_ids]
        angle = ref.geodesic(self.pred, self.truth[order])
        identical = np.all(self.pred == self.truth[order], axis=(1, 2))
        size = os.path.getsize(self.truth_path) + os.path.getsize(self.pred_path)
        objs = checks.read_jsonl(self.truth_path) + checks.read_jsonl(self.pred_path)
        return {
            "gimbal_band_share": float(np.mean(np.abs(np.cos(pyr[:, 1])) <= gen.BAND_HALF_WIDTH)),
            "gimbal_locked_share": float(locked.mean()),
            "annotated_share": annotated_share(objs),
            "identical_pair_share": float(identical.mean()),
            "small_angle_pair_share": float(np.mean(~identical & (angle <= 1e-3))),
            "near_pi_pair_share": float(np.mean(angle >= np.pi - 1e-2)),
            "bytes_per_input_record": size / len(objs),
            "frames": self.frames, "landmarks": gen.LANDMARKS, "cameras": gen.CAMERAS,
            "bytes_per_frame": os.path.getsize(self.frames_path) / self.frames,
        }

    def mem_file(self):
        return self.truth_path

    def corrupt(self):
        with open(self.eval_csv, encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        rec_id, value = rows[1].split(",")
        rows[1] = f"{rec_id},{float(value) + 1e-3!r}"
        with open(self.eval_csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")


WORKLOADS = {w.name: w for w in (Build, Analyze)}


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_checks(workload):
    """{name: (ok, detail)}; a check that raises on malformed output fails."""
    out = {}
    for name, fn in workload.output_checks().items():
        try:
            out[name] = fn()
        except Exception as exc:  # the output under test is malformed
            out[name] = (False, f"check raised {exc!r}")
    return out


def run_pass(runner, workload, tag, traced=False):
    """Run every step once; returns per-step records, stopping at a failure."""
    out = []
    for step in workload.steps():
        if step.before is not None:
            step.before()
        spans = os.path.join(runner.work, f"{tag}.{step.name}.spans.json") if traced else None
        rec = runner.spawn(runner.argv(step, spans), f"{tag}.{step.name}")
        rec.update(name=step.name, records=step.records)
        if traced and rec["rc"] == 0:
            with open(spans, encoding="utf-8") as fh:
                rec["spans"] = json.load(fh)
        out.append(rec)
        if rec["rc"] != 0:
            break
    return out


def tail_percentile(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def stamp(root):
    rev = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            rev = fh.read().strip()
        if rev.startswith("ref: "):
            ref_path = os.path.join(root, ".git", rev[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    rev = fh.read().strip()
    src = os.path.join(root, "src", "rotkit")
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_rev": rev,
        "src_sha256": digest(sorted(os.path.join(src, f) for f in os.listdir(src) if f.endswith(".py"))),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def setup_seconds(runner, reps):
    """Median wall of fresh interpreters importing rotkit.cli and building the parser."""
    probe = [sys.executable, "-c", "import rotkit.cli; rotkit.cli.build_parser()"]
    walls = []
    for k in range(reps):
        child = runner.spawn(probe, f"setup{k}")
        if child["rc"] != 0:
            raise RuntimeError("cannot import rotkit.cli from src/")
        walls.append(child["wall_s"])
    return walls


def layer_metrics(workload, untraced, traced, mem):
    """Per-layer numbers from one traced pass, next to one untraced pass.

    Returns (metrics, breakdown); breakdown splits each command's traced
    wall into layer self times and the command's own self time, which
    holds interpreter start-up, imports, exit and whatever the entry
    function does outside rotkit's layers (argparse, CSV/SVG writes).
    """
    agg, counters, breakdown = {}, {"euler.gimbal_count": 0, "euler.near_gimbal_count": 0}, {}
    for rec in (r for r in traced if "spans" in r):
        sp = rec["spans"]
        root = "worker" if rec["name"] == "register" else "cli"
        layers = {}
        for name, (calls, incl, self_s) in sp["stats"].items():
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += incl
            a[2] += self_s
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        for k in counters:
            counters[k] += sp["counters"][k]
        startup = sp["t_import"] - rec["t_spawn"]
        exit_s = rec["t_reap"] - sp["t_end"]
        main_s = sp["stats"][f"{root}.main"][1]
        own = startup + exit_s + (sp["t_end"] - sp["t_import"] - main_s) + layers.pop(root, 0.0)
        total = own + sum(layers.values())
        breakdown[rec["name"]] = {
            "wall_s": rec["wall_s"], "startup_s": startup, "exit_s": exit_s, "self_s": own,
            "layers_self_s": layers, "sum_gap_share": abs(rec["wall_s"] - total) / rec["wall_s"]}

    def per_call_us(*names):
        calls = agg.get(names[0], [0])[0]
        return 1e6 * sum(agg.get(n, [0, 0.0])[1] for n in names) / calls if calls else 0.0

    def incl(name):
        return agg.get(name, [0, 0.0])[1]

    def calls(prefix):
        return sum(v[0] for n, v in agg.items() if n.startswith(prefix))

    m = {
        "labels.decode_us": per_call_us("labels.decode"),
        "labels.validate_us": per_call_us("labels.record_from_dict"),
        "labels.encode_us": per_call_us("labels.record_to_dict", "labels.encode_json"),
        "labels.read_s": incl("labels.read_labels"),
        "labels.write_s": incl("labels.write_labels"),
        "labels.bytes_per_record": mem,
        "core.is_rotation_us": per_call_us("core.is_rotation"),
        "core.geodesic_us": per_call_us("core.geodesic_distance"),
        "core.calls": calls("core."),
        "euler.extract_pyr_us": per_call_us("euler.extract_pyr"),
        "euler.extract_rpy_us": per_call_us("euler.extract_rpy"),
        "euler.gimbal_count": counters["euler.gimbal_count"],
        "euler.near_gimbal_count": counters["euler.near_gimbal_count"],
        "augment.pose_stream_us": per_call_us("augment.pose_stream"),
        "augment.random_augment_us": per_call_us("augment.random_augment"),
        "coverage.spiral_s": incl("coverage.spiral_rotations"),
        "coverage.euler_range_stats_s": incl("coverage.euler_range_stats"),
        "coverage.pca_project_s": incl("coverage.pca_project"),
        "eigen.jacobi_eigh_us": per_call_us("eigen.jacobi_eigh"),
        "eigen.calls": calls("eigen."),
        "drawing.project_axes_us": per_call_us("drawing.project_axes"),
        "drawing.render_svg_us": per_call_us("drawing.render_svg"),
        "drawing.files_written": len(os.listdir(workload.svg)) if workload.name == "build" else 0,
        "evaluate.mean_geodesic_error_s": incl("evaluate.mean_geodesic_error"),
        "evaluate.max_abs_dev_rad": getattr(workload, "max_abs_dev", 0.0),
        "registration.horn_rotation_us": per_call_us("registration.horn_rotation"),
        "registration.panoptic_rotation_us": per_call_us("registration.panoptic_rotation"),
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = sum(v[2] for n, v in agg.items() if n.startswith(layer + "."))
    for cmd in COMMANDS:
        m[f"cli.{cmd}.self_s"] = breakdown[cmd]["self_s"] if cmd in breakdown else 0.0
    for step in COMMANDS + ("register",):
        m[f"{step}_s"] = next((r["wall_s"] for r in untraced if r["name"] == step), 0.0)
    m["worker.self_s"] = breakdown["register"]["self_s"] if "register" in breakdown else 0.0
    m["process.startup_s"] = sum(b["startup_s"] for b in breakdown.values())
    m["process.exit_s"] = sum(b["exit_s"] for b in breakdown.values())
    traced_wall = sum(r["wall_s"] for r in traced)
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - sum(r["wall_s"] for r in untraced)
    return m, breakdown


def label_bytes(runner, path):
    """tracemalloc bytes held per record by read_labels on the first records of path."""
    sample = os.path.join(runner.work, "mem_sample.jsonl")
    with open(path, encoding="utf-8") as src, open(sample, "w", encoding="utf-8") as dst:
        dst.writelines(line for _, line in zip(range(MEM_SAMPLE), src))
    code = ("import sys, tracemalloc; from rotkit.labels import read_labels; "
            "tracemalloc.start(); r = read_labels(sys.argv[1]); "
            "print(tracemalloc.get_traced_memory()[0] / len(r))")
    child = runner.spawn([sys.executable, "-c", code, sample], "mem")
    if child["rc"] != 0:
        raise RuntimeError(f"read_labels failed on {sample} under tracemalloc")
    return float(child["stdout"].split()[-1])


def measure(root, workload_name, seed, seconds, trace, sizes):
    """Run one workload; returns (report, result) as dicts."""
    work = os.path.join(root, WORK_DIR, workload_name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, work)
    report = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
              "sizes": sizes, "stamp": stamp(root), "loadavg_before": os.getloadavg()}
    t_setup = time.perf_counter()
    setup_walls = setup_seconds(runner, 1 if trace else 1 + SETUP_REPS)[1:]
    workload = WORKLOADS[workload_name](work, seed, sizes)
    workload.prepare()
    report["prepare_s"] = time.perf_counter() - t_setup

    attempted = failed = 0
    checks_out, reference, passes = {}, None, []
    while True:
        traced = trace and len(passes) == 1
        recs = run_pass(runner, workload, f"pass{len(passes)}", traced=traced)
        attempted += len(recs)
        failed += sum(r["rc"] != 0 for r in recs)
        complete = len(recs) == len(workload.steps()) and recs[-1]["rc"] == 0
        if complete and reference is None:
            workload.stdout = {r["name"]: r["stdout"] for r in recs}
            for name, (ok, detail) in run_checks(workload).items():
                checks_out[name] = {"ok": ok, "detail": detail}
                attempted += 1
                failed += not ok
                complete &= ok
            if complete:
                reference = digest(workload.outputs())
                report["properties"] = workload.properties()
        elif complete:
            try:
                complete = digest(workload.outputs()) == reference
            except OSError:
                complete = False
            attempted += 1
            failed += not complete
            checks_out["rerun_identical"] = {
                "ok": complete, "detail": "later passes byte-identical" if complete
                else f"pass {len(passes)} differs from pass 0"}
        passes.append(recs)
        if not complete:
            break
        if trace:
            if traced:
                break
            continue
        measured = sum(r["wall_s"] for p in passes for r in p)
        if len(passes) >= MIN_PASSES and measured + sum(r["wall_s"] for r in recs) > seconds:
            break

    untraced = [p for k, p in enumerate(passes) if not (trace and k == 1)]
    walls = [sum(r["wall_s"] for r in p) for p in untraced]
    records = sum(r["records"] for r in untraced[0])
    wall = statistics.median(walls)
    per_cmd, per_cmd_cpu = {}, {}
    for p in untraced:
        for r in p:
            per_cmd.setdefault(r["name"], []).append(r["wall_s"])
            per_cmd_cpu.setdefault(r["name"], []).append(r["cpu_s"])
    report.update({
        "loadavg_after": os.getloadavg(),
        "passes": len(untraced),
        "wall_s": {"median": wall, "samples": walls, "n": len(walls), "tail": tail_percentile(walls),
                   "cpu_samples": [sum(r["cpu_s"] for r in p) for p in untraced],
                   "spread": (max(walls) - min(walls)) / wall},
        "commands_s": {k: {"median": statistics.median(v), "min": min(v), "max": max(v), "n": len(v)}
                       for k, v in per_cmd.items()},
        "commands_cpu_s": {k: statistics.median(v) for k, v in per_cmd_cpu.items()},
        "records_per_pass": records,
        "setup_s_samples": setup_walls,
        "checks": checks_out,
        "failed_ratio": failed / attempted,
    })
    if trace:
        mem = workload.mem_file()
        metrics, report["trace_breakdown"] = layer_metrics(
            workload, passes[0], passes[1] if len(passes) > 1 else [],
            label_bytes(runner, mem) if mem else 0.0)
        units = {m["name"]: m["unit"] for m in load_spec(root)["per_layer"]}
    else:
        metrics = {
            "wall_s": wall,
            "records_per_s": records / wall,
            "peak_rss_mb": max(r["maxrss_kb"] for p in untraced for r in p) / 1024.0,
            "setup_s": statistics.median(setup_walls),
        }
        units = {m["name"]: m["unit"] for m in load_spec(root)["end_to_end"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics.get(k, float("nan")), "unit": u} for k, u in units.items()}}
    return report, result, workload


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def self_test(root):
    """Small sizes, every workload, both modes; then one corrupted record each."""
    spec = load_spec(root)
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            report, result, workload = measure(root, name, 7, 0, trace, SMALL)
            kind = "per_layer" if trace else "end_to_end"
            missing = [m["name"] for m in spec[kind] if m["name"] not in result["metrics"]]
            bad = [k for k, v in result["metrics"].items() if v["value"] != v["value"]]
            if missing or bad or not result["correct"]:
                problems.append(f"{name} trace={trace}: missing {missing}, nan {bad}, "
                                f"failed {result['failed']}/{result['attempted']} {report['checks']}")
        workload.corrupt()
        found = [k for k, (ok, _) in run_checks(workload).items() if not ok]
        if not found:
            problems.append(f"{name}: a corrupted output record passed every check")
        print(f"self-test {name}: corrupted record caught by {found}")
    shutil.rmtree(os.path.join(root, WORK_DIR), ignore_errors=True)
    for p in problems:
        print("self-test FAIL:", p)
    print("self-test", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rotkit", "cli.py")):
        print("perfbench: src/rotkit not found; run from the repository root", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    if args.workload is None:
        ap.error("--workload is required")
    report, result, _ = measure(root, args.workload, args.seed, args.seconds, args.trace, FULL)
    shutil.rmtree(os.path.join(root, WORK_DIR, args.workload), ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
