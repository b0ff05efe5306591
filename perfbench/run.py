#!/usr/bin/env python3
"""specprune benchmark driver.

Runs one workload from the checkout's own sources (`src/`), single-process
with BLAS pinned to one thread, and prints one JSON object as the last line
of standard output:

  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (untraced passes); with
`--trace 1` they are the per-layer self times and counts of traced passes,
alternated with untraced passes so that the tracing overhead is measured in
the same run. The line before it is a JSON block with the environment, the
selection digest, the per-pass walls and every failed check.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload c08_keep_sweep --seed 0 --seconds 20 --trace 0

Workloads: c08_keep_sweep, c09_alpha_reg, greedy_wide (see BENCHMARK.json
for why each one is there).
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
MIN_PASSES = 3  # per kind of pass, even when one pass outlasts --seconds
WORKLOAD_NAMES = ("c08_keep_sweep", "c09_alpha_reg", "greedy_wide")

# per-layer metrics: self times and counts per pass, and per set-up (where the
# sweep workloads train their models)
PASS_TIMES = ("spectral.push", "spectral.moments", "spectral.select",
              "spectral.recovery", "spectral.reg", "spectral.surgery",
              "backend.update", "linalg.cholesky", "net.forward", "net.conv",
              "pipeline.eval", "pipeline.compress", "trace.other")
PASS_COUNTS = ("spectral.push_samples", "stats.rows", "net.einsum_plans",
               "backend.updates", "backend.bytes_computed")
SETUP_TIMES = ("pipeline.train", "datasets.make", "train.forward", "train.backward",
               "train.step")
SETUP_COUNTS = ("train.samples",)


class UsageError(Exception):
    """The run cannot start: bad arguments, environment or checkout."""


def pin_blas_threads(environ):
    """Force one BLAS thread; refuse a conflicting value set by the caller.
    Must run before NumPy is imported."""
    for name in BLAS_THREAD_VARS:
        value = environ.get(name)
        if value is not None and value.strip() != "1":
            raise UsageError(f"{name}={value} overrides the one-thread BLAS policy")
        environ[name] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description="specprune benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; every input seed derives from it (0: the "
                        "acceptance configs' own seeds)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measurement window per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds >= 0:
        p.error("--seconds must be non-negative")
    return args


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------

def _blas_threads_in_use():
    """Thread count reported by NumPy's bundled OpenBLAS, or None."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "specprune")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment():
    import platform

    import numpy
    import scipy

    import specprune

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads_in_use(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "greedy_backend": specprune.greedy_backend_name(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


def _fast_quartile(walls):
    """Lower quartile of pass times. Other tenants of a shared host slow
    NumPy-heavy passes by up to 1.8x in phases lasting minutes; the fastest
    quarter of a run's passes is the least affected."""
    if len(walls) < 2:
        return walls[0] if walls else float("nan")
    return statistics.quantiles(walls, n=4, method="inclusive")[0]


class Run:
    """One benchmark run of one workload: set-up reps, then timed passes."""

    def __init__(self, workload, seconds, trace, workdir):
        import spans  # imports NumPy, so only after pin_blas_threads
        import workloads

        self.spans = spans
        self.wl = workload
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.checks = workloads.Checks()
        self.tracer = spans.Tracer()
        self.state = None
        self.reference = None  # (digest, comparable output) of the first pass
        self.first_output = None
        self.setup_walls = []
        self.walls = {"untraced": [], "traced": []}
        self.items = None
        self.pass_self = []  # per traced pass: {name: self seconds}
        self.pass_counts = []
        self.setup_self = []
        self.setup_counts = []

    def _traced(self, fn):
        """Run fn with every wrapper installed, under a root span; returns
        (result, root span seconds, self seconds by name, counts)."""
        mark = self.tracer.mark()
        with self.spans.traced(self.tracer) as saved:
            with self.tracer.span(self.spans.ROOT_SPAN):
                result = fn()
        _, start, end, _ = self.tracer.spans[mark[0]]
        selfs = self.tracer.self_times(mark)
        self.checks.check(("trace", mark[0]), "tracing wrappers restored",
                          self.spans.restored(saved))
        self.checks.check(("trace", mark[0]), "self times sum to the traced wall",
                          abs(sum(selfs.values()) - (end - start)) <= 1e-6)
        return result, end - start, selfs, self.tracer.counts_since(mark)

    def setup(self):
        for _ in range(SETUP_REPS):
            if self.trace:
                self.state, wall, selfs, counts = self._traced(
                    lambda: self.wl.setup(self.workdir))
                self.setup_self.append(selfs)
                self.setup_counts.append(counts)
            else:
                t0 = time.perf_counter()
                self.state = self.wl.setup(self.workdir)
                wall = time.perf_counter() - t0
            self.setup_walls.append(wall)

    def one_pass(self, traced):
        op = ("pass", len(self.walls["untraced"]) + len(self.walls["traced"]))
        try:
            if traced:
                out, wall, selfs, counts = self._traced(
                    lambda: self.wl.run_pass(self.state))
            else:
                t0 = time.perf_counter()
                out = self.wl.run_pass(self.state)
                wall = time.perf_counter() - t0
        except Exception as exc:  # a failing pass is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.checks.error(op, exc)
            return
        self.walls["traced" if traced else "untraced"].append(wall)
        if traced:
            self.pass_self.append(selfs)
            self.pass_counts.append(counts)
        self.wl.check(self.state, out, self.checks, op)
        digest = self.wl.digest(out)
        comparable = self.wl.comparable(out)
        if self.reference is None:
            self.reference = (digest, comparable)
            self.first_output = out
            self.items = self.wl.items(out)
        else:
            self.checks.check(op, "output identical to the first pass",
                              (digest, comparable) == self.reference)

    def measure(self):
        kinds = (False, True) if self.trace else (False,)
        end = time.perf_counter() + self.seconds
        i = 0
        while i < MIN_PASSES * len(kinds) or time.perf_counter() < end:
            self.one_pass(kinds[i % len(kinds)])
            i += 1
        spot = getattr(self.wl, "spot_check", None)
        if spot is not None:
            spot(self.state, self.checks)

    def end_to_end(self):
        wall = _fast_quartile(self.walls["untraced"])
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (_median(self.setup_walls), "s"),
            "wall_s": (wall, "s"),
            "items_per_s": (self.items / wall if self.items else float("nan"), "1/s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }

    def overhead(self):
        return _fast_quartile(self.walls["traced"]) - _fast_quartile(self.walls["untraced"])

    def per_layer(self):
        def med(rows, name):
            return _median([r.get(name, 0.0) for r in rows])

        out = {}
        for rows, names in ((self.pass_self, PASS_TIMES), (self.setup_self, SETUP_TIMES)):
            for name in names:
                out[name + "_s"] = (med(rows, name), "s")
        for rows, names in ((self.pass_counts, PASS_COUNTS),
                            (self.setup_counts, SETUP_COUNTS)):
            for name in names:
                out[name] = (med(rows, name), "count")
        out["trace.overhead_s"] = (self.overhead(), "s")
        return out

    def trace_summary(self):
        """Medians over traced passes; each pass's self times sum to its wall
        (checked per pass), so the difference to the untraced median is the
        tracing overhead plus run-to-run noise."""
        return {
            "traced_wall_s": _median(self.walls["traced"]),
            "untraced_wall_s": _median(self.walls["untraced"]),
            "overhead_s": self.overhead(),
            "self_sum_s": _median([sum(s.values()) for s in self.pass_self]),
            "pass_self_s": {k: _median([s.get(k, 0.0) for s in self.pass_self])
                            for k in sorted({k for s in self.pass_self for k in s})},
        }


def run(workload_name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (info, result) as printed by main()."""
    import workloads

    wl = workloads.make_workload(workload_name, seed, tiny=tiny)
    workdir = os.path.join(OUT, f"{workload_name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    bench = Run(wl, seconds, trace, workdir)
    try:
        bench.setup()
        bench.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = bench.checks
    metrics = bench.per_layer() if trace else bench.end_to_end()
    correct = (checks.failed == 0 and bench.first_output is not None
               and all(math.isfinite(v) for v, _ in metrics.values()))
    info = {
        "workload": workload_name,
        "seed": seed,
        "inputs": wl.doc,
        "digest": bench.reference[0] if bench.reference else None,
        "setup_walls_s": bench.setup_walls,
        "pass_walls_s": bench.walls,
        "acc_target_mean": (wl.quality(bench.state, bench.first_output)
                            if bench.first_output is not None else None),
        "items_per_pass": bench.items,
        "checks_run": checks.total,
        "failed_ratio": checks.failed / max(1, checks.attempted),
        "failures": checks.failures[:50],
    }
    if trace:
        info["trace"] = bench.trace_summary()
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload_name}-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump(bench.tracer.to_json(), fh)
        info["trace_file"] = os.path.relpath(path, ROOT)
    result = {
        "correct": bool(correct),
        "attempted": int(max(1, checks.attempted)),
        "failed": int(checks.failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def main(argv=None):
    args = parse_args(argv)
    try:
        pin_blas_threads(os.environ)
        if not os.path.isfile(os.path.join(SRC, "specprune", "__init__.py")):
            raise UsageError(f"no specprune sources under {SRC}")
        sys.path.insert(0, SRC)
        sys.path.insert(0, HERE)
        import specprune
        if os.path.dirname(os.path.dirname(os.path.abspath(specprune.__file__))) != SRC:
            raise UsageError(f"specprune imported from {specprune.__file__}, not {SRC}")
        env = environment()
        if env["blas_threads"] not in (None, 1):
            raise UsageError(f"BLAS reports {env['blas_threads']} threads, expected 1")
    except UsageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    info["env"] = env
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
