"""Run every workload of the benchmark over a set of seeds and summarise.

    python3 perfbench/suite.py --seeds 1 2 3 --seconds 20 --trace 0 --out runs.json

Each (seed, workload) pair runs `run.py` in its own process, one after the
other.  The summary gives, per workload and metric, the median, the
quartiles and the spread (interquartile distance over the median) of the
seeds' values, and for end-to-end metrics whether the spread stays within a
third of the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    report = next(json.loads(l)["report"] for l in lines if l.startswith('{"report"'))
    return {"report": report, "result": json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        row = {"median": med, "n": len(values), "unit": runs[0]["result"]["metrics"][name]["unit"]}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            if name in bounds and row["spread"] is not None:
                row["steady"] = row["spread"] < bounds[name] / 3
        out[name] = row
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", nargs="+", default=None)
    p.add_argument("--out", default=None, help="write all reports and the summary here")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list] = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            r = run_one(w, seed, seconds, args.trace)
            runs[w].append(r)
            res = r["result"]
            figs = " ".join(f"{k}={v['value']:.4g}" for k, v in r["report"]["named"].items())
            print(f"{w} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {figs}", flush=True)
    summary = {w: summarise(rs, bounds) for w, rs in runs.items()}
    for w, rows in summary.items():
        for name, row in rows.items():
            spread = row.get("spread")
            print(f"{w} {name}: median={row['median']:.6g} {row['unit']} n={row['n']}"
                  + ("" if spread is None else f" spread={spread:.4f}")
                  + ("" if "steady" not in row else f" steady={row['steady']}"))
    if args.out:
        doc = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds,
               "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
