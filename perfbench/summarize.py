"""Summarise saved benchmark outputs into medians and quartiles per workload.

Usage: python3 perfbench/summarize.py OUT_FILE... > summary.json

Each OUT_FILE is the standard output of one `run.py` invocation. For
every workload and metric, the summary gives the median, the quartiles
(statistics.quantiles, n=4) and the spread (IQR / median) across runs.
Untraced runs also give the per-command medians from their reports, and
traced runs give the median of every per-layer metric.
"""

import json
import statistics
import sys


def quartiles(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    med = statistics.median(values)
    return {"median": med, "q1": q[0], "q3": q[2], "spread": (q[2] - q[0]) / med if med else None,
            "n": len(values)}


def main(paths):
    runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        key = (report["workload"], report["trace"])
        runs.setdefault(key, []).append((report, result))
    out = {}
    for (workload, trace), items in sorted(runs.items()):
        section = out.setdefault(workload, {})
        metrics = {}
        for _, result in items:
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
        entry = {
            "seeds": [r["seed"] for r, _ in items],
            "correct": all(res["correct"] for _, res in items),
            "failed_ratio": max(r["failed_ratio"] for r, _ in items),
            "metrics": {k: quartiles(v) for k, v in metrics.items()},
        }
        if not trace:
            cmds = {}
            for r, _ in items:
                for name, c in r["commands_s"].items():
                    cmds.setdefault(name, []).append(c["median"])
            entry["commands_s"] = {k: quartiles(v)["median"] for k, v in cmds.items()}
            entry["properties"] = items[0][0].get("properties")
            entry["stamp"] = items[0][0]["stamp"]
        section["per_layer" if trace else "end_to_end"] = entry
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
