"""Repeat the benchmark over seeds and summarise each metric's spread.

Usage, from the repository root:

    python3 perfbench/repeat.py --runs 10 --out perfbench/baseline.json

Runs `perfbench/run.py` once per seed and workload, one process at a time,
then reports for every end-to-end metric the median, the quartiles, the
sample count and the spread (q3 - q1) / median that BENCHMARK.json bounds.
`--traced` adds one traced run per workload for the per-layer table.
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


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarise(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    summary = {
        "note": "Times are wall seconds at the reference speed of perfbench/refclock.py; "
        "the first and third quartiles are over one run per seed.",
        "runs": args.runs,
        "seconds": args.seconds,
        "workloads": {},
    }
    status = 0
    for workload in args.workload or names:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        results = []
        for seed in seeds:
            result, summary["env"] = run_once(workload, seed, args.seconds, 0)
            results.append(result)
        entry = {"seeds": seeds, "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarise([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = {**stats, "unit": metric["unit"], "bound": metric["bound"]}
            flag = "" if name == "setup_s" or stats["spread"] <= metric["bound"] / 3 else "  ABOVE A THIRD OF THE BOUND"
            print(f"{workload} {name}: median {stats['median']:.6g} q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                  f"n {stats['n']} spread {stats['spread']:.3f} bound {metric['bound']}{flag}", flush=True)
        if entry["failed"] or not all(r["correct"] for r in results):
            print(f"{workload}: {entry['failed']} failed jobs", flush=True)
            status = 1
        if args.traced:
            traced, _ = run_once(workload, args.first_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
