"""hybridkit benchmark: distill and layer_select at the desk config.

Run from the repository root:

    python3 perfbench/run.py --workload distill --seed 1 --seconds 40 --trace 0

One process, one closed-loop client, at most two BLAS threads.  The workload
is set up several times (the median is `setup_s`), then operations run back
to back for `--seconds`, then results are checked outside the timed region.

`--trace 0` reports the end-to-end metrics; their times are scaled to a fixed
reference speed of the machine, measured by a probe run after every operation
(see `make_probe`), and the times as measured are printed beside them.
`--trace 1` alternates untraced
operations with operations traced by timing spans around hybridkit's public
functions (see spans.py), and reports per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of stdout is the
JSON result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# top-level spans must cover this share of every traced operation's wall time
MIN_COVERAGE = 0.95
# set-up repeats: at least SETUP_MIN_REPS, more while they add up to less
# than SETUP_MIN_S (cheap set-ups are noisy), at most SETUP_MAX_REPS
SETUP_MIN_REPS, SETUP_MAX_REPS = 3, 12
SETUP_MIN_S = 1.5
# warm-up before timing: at least this many operations, and this share of --seconds
WARMUP_MIN_OPS = 2
WARMUP_SHARE = 0.2
# the speed probe's median time on the machine of perfbench/baseline.json; the
# end-to-end times are reported at the speed where the probe takes this long
REF_PROBE_S = 0.140
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt options
HEAP_KEEP_BYTES = 1 << 30


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("distill", "layer_select"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def keep_heap() -> bool:
    """Keep freed memory in the heap (glibc) instead of unmapping it; True if set.

    By default glibc serves large arrays from fresh mmap pages and unmaps
    them on free, so every operation page-faults its working set again.  In
    a VM the cost of those faults swings with the host's load: on a 2-vCPU
    Xeon VM a layer_select run took ~320k faults and its candidate time
    moved by ~20% from one process to the next; with the heap kept, ~41k
    faults and ~4%.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    return all(libc.mallopt(option, HEAP_KEEP_BYTES) == 1
               for option in (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD))


def prepare_process() -> None:
    """Cap BLAS threads (before numpy loads) and put hybridkit on the path."""
    if not (SRC / "hybridkit" / "__init__.py").is_file():
        raise FileNotFoundError(f"hybridkit sources not found under {SRC}")
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = threads
    # corpus caching would write outside the checkout
    os.environ.pop("HYBRIDKIT_CACHE", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def gemm_roofline(reps: int = 25) -> dict:
    """Median f32 GEMM rate at the MLP shape [2048, 256] x [256, 768]."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((2048, 256), dtype=np.float32)
    b = rng.standard_normal((256, 768), dtype=np.float32)
    for _ in range(3):
        a @ b
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    flop = 2.0 * 2048 * 256 * 768
    return {"shape": "[2048,256]x[256,768] f32", "gflops": flop / statistics.median(times) / 1e9,
            "n": reps}


def make_probe():
    """The speed probe: returns a function that times one pass of a fixed kernel.

    The kernel is plain numpy, independent of hybridkit, in the desk
    config's mix: the MLP GEMM [2048,256]x[256,768] with silu, a softmax
    over [8,4,256,256] attention scores, and many small calls.  On a shared
    host the machine's speed drifts by 20% or more over minutes, and the
    workloads' operation times follow it: over five runs on a 2-vCPU Xeon
    VM their medians spread by 0.08-0.10 (interquartile over median) while
    their ratios to the probe's median spread by 0.02.  One probe follows
    every measured operation, so the end-to-end times are taken at the
    speed the probe saw during the same seconds.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((2048, 256), dtype=np.float32)
    w = rng.standard_normal((256, 768), dtype=np.float32)
    scores = rng.standard_normal((8, 4, 256, 256), dtype=np.float32)

    def probe() -> float:
        t0 = time.perf_counter()
        for _ in range(6):
            h = x @ w
            h /= 1.0 + np.exp(-h)
            s = scores - scores.max(-1, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(-1, keepdims=True)
            for _ in range(200):
                np.add(x[:1], 1.0)
        return time.perf_counter() - t0

    return probe


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "roofline": gemm_roofline(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_op(j: int) -> bool:
    """Traced-run pattern over measured operations: 0 not; 1, 2 traced; 3, 4 not...

    Pairs rather than odd/even, so that operations cycling over an even
    number of inputs (layer_select's candidates) land on both sides.
    """
    return (j + j // 2) % 2 == 1


def closed_loop(workload, seconds: float, tracer=None) -> list[bool]:
    """Run operations back to back; returns each one's check.

    The first operations warm up (allocator pools, BLAS threads, page
    mappings): at least WARMUP_MIN_OPS of them, and until WARMUP_SHARE of
    `seconds` has passed.  They are checked but left out of the figures.
    The measured operations after them run for `seconds`, each followed by
    one pass of the speed probe (see `make_probe`).  With a tracer,
    traced and untraced measured operations alternate (see `traced_op`), so
    drift on the machine touches both alike; the tracer also records the
    closing `finish`.
    """
    clock = time.perf_counter
    oks = []

    def one(i: int, traced: bool) -> None:
        if traced:
            tracer.install()
            tracer.begin_op()
        try:
            t0 = clock()
            value = workload.op(i)
            wall = clock() - t0
        finally:
            if traced:
                tracer.remove()
        if traced:
            tracer.end_op(wall)
        workload.walls.append(wall)
        oks.append(workload.after_op(i, value))
        workload.ops.append(value)

    warm_until = clock() + WARMUP_SHARE * seconds
    i = 0
    while i < WARMUP_MIN_OPS or clock() < warm_until:
        one(i, traced=False)
        i += 1
    workload.warmup = i
    start = clock()
    probe = make_probe()
    workload.probes = []
    while (i - workload.warmup < (3 if tracer else 1)) or clock() - start < seconds:
        one(i, traced=tracer is not None and traced_op(i - workload.warmup))
        workload.probes.append(probe())
        i += 1
    if tracer is None:
        workload.finish()
    else:
        tracer.install()
        try:
            workload.finish()
        finally:
            tracer.remove()
    return oks


def run(args, scale=None) -> dict:
    """Set up, measure and check one workload; returns the full report."""
    import hybridkit.tensor as T
    import spans
    import workloads as W

    scale = scale or W.DESK
    env = environment()
    env["malloc"] = ("heap kept: mmap and trim thresholds 1 GiB" if keep_heap()
                     else "default")
    T.set_precision("standard")
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # set up from scratch several times; the last set-up is the one measured
        setup_s = []
        while len(setup_s) < SETUP_MIN_REPS or (
                sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS):
            w = W.WORKLOADS[args.workload](seed=args.seed, scale=scale, workdir=workdir)
            t0 = time.perf_counter()
            w.setup()
            setup_s.append(time.perf_counter() - t0)

        tracer = None
        if args.trace:
            tracer = spans.Tracer(w.teacher.cfg)
        oks = closed_loop(w, args.seconds, tracer)
        rss = peak_rss_mb()
        usage = resource.getrusage(resource.RUSAGE_SELF)

        checks = w.final_checks()
        failed_ops = {i for i, ok in enumerate(oks) if not ok}
        failed_ops |= {i for ok, i in checks.values() if not ok}
        probe_s = W.median(w.probes)
        metrics, named = w.figures(speed=REF_PROBE_S / probe_s)
        named["probe_ms_p50"] = W.Figure(probe_s * 1e3, "ms", len(w.probes))
        metrics["setup_s"] = W.Figure(W.median(setup_s), "s", len(setup_s))
        metrics["peak_rss_mb"] = W.Figure(rss, "MB", 1)
        attempted = len(oks)
        named["fail_ratio"] = W.Figure(len(failed_ops) / attempted, "ratio", attempted)
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "loop": "closed, 1 client", "env": env,
            "attempted": attempted, "failed": len(failed_ops), "op_walls_s": w.walls,
            "probe_walls_s": w.probes,
            "rusage": {"user_s": usage.ru_utime, "sys_s": usage.ru_stime,
                       "minor_faults": usage.ru_minflt},
            "checks": {name: ok for name, (ok, _) in checks.items()},
            "metrics": {k: v.as_dict() for k, v in metrics.items()},
            "named": {k: v.as_dict() for k, v in named.items()},
        }
        if tracer is not None:
            per_layer = tracer.summary()
            untraced = [t for j, t in enumerate(w.measured(w.walls)) if not traced_op(j)]
            per_layer["trace.overhead_ratio"] = (
                W.median(tracer.op_walls) / W.median(untraced), "ratio")
            report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
            report["top_level_s"] = tracer.top_level()
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def result_line(report: dict) -> dict:
    """The result line: end-to-end metrics, or per-layer ones when traced."""
    section = report["per_layer"] if report["trace"] else report["metrics"]
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in section.items()}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_report(report: dict) -> None:
    env = report["env"]
    print(f"# hybridkit benchmark  workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']} loop={report['loop']}")
    print(f"env numpy={env['numpy']} blas={env['blas']} threads={env['threads']} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} "
          f"roofline={env['roofline']['gflops']:.1f} GFLOP/s {env['roofline']['shape']} "
          f"(n={env['roofline']['n']})")
    for section, label in (("metrics", "metric"), ("named", "figure")):
        for name, fig in report[section].items():
            print(f"{label} {name} = {fig['value']:.6g} {fig['unit']} (n={fig['n']})")
    for name, ok in report["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    if "per_layer" in report:
        for name, fig in report["per_layer"].items():
            print(f"layer {name} = {fig['value']:.6g} {fig['unit']}")
        for name, value in sorted(report["top_level_s"].items(), key=lambda kv: -kv[1]):
            print(f"top-level {name} = {value:.6g} s/op")
        coverage = report["per_layer"]["trace.coverage_min"]["value"]
        print(f"check span_coverage >= {MIN_COVERAGE}: "
              f"{'ok' if coverage >= MIN_COVERAGE else 'FAILED'} ({coverage:.4f})")
    print(json.dumps({"report": report}, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare_process()
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report = run(args)
    print_report(report)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
