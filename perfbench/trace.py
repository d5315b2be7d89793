"""Run one rotkit process with spans around the calls into each module.

Usage:
    python3 perfbench/trace.py SPANS.json cli ARGS...     # rotkit.cli.main(ARGS)
    python3 perfbench/trace.py SPANS.json worker ARGS...  # register_worker.main(ARGS)

Nothing under src/ is edited: after import, every public function of each
rotkit module is replaced, in every rotkit namespace that binds it, by a
wrapper that records a span when the call crosses into the module from
outside it (a layer boundary).  Calls from inside the same module pass
straight through, except for the few functions in ALWAYS whose per-call
cost is a metric of its own.  Spans are aggregated in memory per function
(calls, inclusive seconds, self seconds = inclusive minus the time covered
by child spans) and written as JSON when the process ends, together with
the monotonic clock readings that let the parent attribute interpreter
start-up and exit.
"""

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

LAYERS = ("cli", "labels", "core", "euler", "augment", "coverage", "eigen",
          "drawing", "evaluate", "registration")
NEAR_GIMBAL = 10 * 1e-4  # 10 x rotkit.euler.GIMBAL_EPS, on |cos| of the locking angle
# Called from inside their own module (read_labels, write_labels,
# canonical_pyr) but measured per record.
ALWAYS = ("labels.record_from_dict", "labels.record_to_dict", "euler.extract_pyr",
          "euler.extract_rpy")


class Tracer:
    """Per-function span aggregates and data-quality counters."""

    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive_s, self_s]
        self.stack = [0.0]  # child seconds accumulated by each open span
        self.counters = {"euler.gimbal_count": 0, "euler.near_gimbal_count": 0}

    def wrap(self, name, fn, on_result=None, home=None):
        """Span around fn; calls made from the module dict `home` are not traced."""
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, clock, caller = self.stack, time.perf_counter, sys._getframe

        def span(*args, **kwargs):
            if caller(1).f_globals is home:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[0] += 1
                st[1] += dt
                st[2] += dt - stack.pop()
                stack[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        span.__wrapped__ = fn
        return span

    def _count_pyr(self, sol):
        self.counters["euler.gimbal_count"] += sol.kind != "regular"
        self.counters["euler.near_gimbal_count"] += abs(math.cos(sol.primary.yaw)) <= NEAR_GIMBAL

    def _count_rpy(self, sol):
        self.counters["euler.gimbal_count"] += sol.kind != "regular"
        self.counters["euler.near_gimbal_count"] += abs(math.cos(sol.value.pitch)) <= NEAR_GIMBAL

    def install(self):
        """Wrap every public rotkit function and the JSON codec of labels."""
        modules = [importlib.import_module(f"rotkit.{layer}") for layer in LAYERS]
        namespaces = modules + [importlib.import_module("rotkit")]
        hooks = {"euler.extract_pyr": self._count_pyr, "euler.extract_rpy": self._count_rpy}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                home = None if name in ALWAYS else vars(mod)
                wrapped = self.wrap(name, fn, hooks.get(name), home)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
        modules[LAYERS.index("labels")].json = types.SimpleNamespace(
            loads=self.wrap("labels.decode", json.loads),
            dumps=self.wrap("labels.encode_json", json.dumps),
            JSONDecodeError=json.JSONDecodeError,
        )


def main(argv):
    spans_path, kind, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    import rotkit.cli  # imports every layer

    tracer.install()
    if kind == "cli":
        run = rotkit.cli.main  # wrapped by install()
    else:
        import register_worker  # binds the wrapped rotkit functions

        run = tracer.wrap("worker.main", register_worker.main)
    t_import = time.perf_counter()
    rc = run(args)
    t_end = time.perf_counter()
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"t_start": T_START, "t_import": t_import, "t_end": t_end, "rc": rc,
                   "stats": tracer.stats, "counters": tracer.counters}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
