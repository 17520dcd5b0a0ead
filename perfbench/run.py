"""bunkbed benchmark: one workload, closed loop, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0

One process with no threads runs the workload's jobs back to back, pass after
pass, until `--seconds` have gone (at least one pass).  Every output is
checked.  Every time is measured with a `refclock.ReferenceClock`: wall time
rescaled to a fixed reference speed of the host, so that other tenants' load
on a shared host moves it little; the raw wall times are printed as well.  The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  A traced run first measures
untraced passes for half the time, then one traced pass, and writes its spans
to perfbench/out/.  The lines before it give the environment and each
end-to-end metric's median, quartiles and sample count.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import benchtrace
import refclock
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is repeated this many times per run and reported as the median.
SETUP_REPS = 21

END_TO_END = (
    ("wall_s", "s"),
    ("largest_job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def environment(bb) -> dict:
    backend = type(bb.exactnum.rat(1))
    return {
        "backend": f"{backend.__module__}.{backend.__name__}",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_rev": git_rev(),
        "machine": f"{os.uname().sysname} {os.uname().release} {os.uname().machine}",
    }


def git_rev() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Runner:
    """Runs passes over a workload's jobs and checks every output.

    A job's first output gets the full check and, where one is recorded,
    the reference digest; later passes must reproduce its digest exactly.
    """

    def __init__(self, workload, jobs, reference, clock, tracer=None):
        self.workload = workload
        self.jobs = jobs
        self.clock = clock
        self.reference = reference.get(workload, {}) if reference else {}
        self.tracer = tracer
        self.digests: dict = {}
        self.job_times: dict = {job.name: [] for job in jobs}
        self.attempted = 0
        self.failed = 0

    def run_pass(self, traced=False):
        """One pass; returns (wall time of the jobs, largest job's time, raw wall time)."""
        gc.collect()
        wall = largest = raw = 0.0
        for job in self.jobs:
            self.attempted += 1
            if traced:
                self.tracer.enabled = True
                sid = self.tracer.open(f"job/{self.workload}/{job.name}")
            start = time.perf_counter()
            try:
                out = job.run()
                error = None
            except Exception as exc:  # a raising job, guard errors included, fails
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            elapsed = self.clock.seconds(start, end)
            raw += end - start
            if traced:
                self.tracer.close(sid)
                self.tracer.enabled = False
            wall += elapsed
            self.job_times[job.name].append(elapsed)
            if job.largest:
                largest = elapsed
            if error is None:
                try:
                    error = self.check(job, out)
                except workloads.JobFailure as exc:
                    error = str(exc)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                self.failed += 1
                print(f"FAILED {self.workload}/{job.name}: {error}", file=sys.stderr)
        return wall, largest, raw

    def check(self, job, out):
        got = workloads.digest(job.to_json(out))
        seen = self.digests.get(job.name)
        if seen is not None:
            return None if got == seen else f"output changed between passes ({got} != {seen})"
        job.check(out)
        want = self.reference.get(job.ref_key) if job.ref_key else None
        if want is not None and got != want:
            return f"digest {got} != reference {want}"
        self.digests[job.name] = got
        return None


def run_workload(workload, seed, seconds, trace=False, smoke=False, reference=None):
    """Measure one workload; returns the result object and a report for humans."""
    if reference is None:
        reference = workloads.load_reference()
    with refclock.ReferenceClock() as clock:
        return _measure(clock, workload, seed, seconds, trace, smoke, reference)


def _measure(clock, workload, seed, seconds, trace, smoke, reference):
    setups, raw_setups = [], []
    for _ in range(SETUP_REPS):
        (bb, jobs), raw, ref = clock.time(lambda: workloads.build(workload, seed, smoke))
        setups.append(ref)
        raw_setups.append(raw)
    tracer = None
    if trace:
        tracer = benchtrace.Tracer()
        tracer.enabled = True
        sid = tracer.open("setup")
        instrument = lambda fresh: benchtrace.instrument(tracer, fresh)  # noqa: E731
        (bb, jobs), raw, ref = clock.time(lambda: workloads.build(workload, seed, smoke, instrument))
        tracer.close(sid)
        tracer.enabled = False
        setup_trace = tracer.take()
        setup_scale = ref / raw
    runner = Runner(workload, jobs, reference, clock, tracer)
    walls, largest, raw_walls = [], [], []
    budget = seconds / 2 if trace else seconds
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < budget:
        wall, big, raw = runner.run_pass()
        walls.append(wall)
        largest.append(big)
        raw_walls.append(raw)
    report = {
        "workload": workload,
        "seed": seed,
        "env": environment(bb),
        "passes": len(walls),
        "setup_reps": len(setups),
        "raw_wall_s": statistics.median(raw_walls),
        "raw_setup_s": statistics.median(raw_setups),
    }
    if trace:
        traced_wall, _, traced_raw = runner.run_pass(traced=True)
        traced = tracer.take()
        metrics = benchtrace.layer_metrics(
            setup_trace, traced, traced_wall, statistics.median(walls), setup_scale, traced_wall / traced_raw
        )
        report["trace_file"] = write_trace(report, setup_trace, traced)
    else:
        samples = {
            "wall_s": walls,
            "largest_job_s": largest,
            "setup_s": setups,
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
        }
        report["samples"] = {
            name: dict(zip(("q1", "median", "q3"), quartiles(v)), n=len(v)) for name, v in samples.items()
        }
        metrics = {
            name: {"value": report["samples"][name]["median"], "unit": unit} for name, unit in END_TO_END
        }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    report["digests"] = runner.digests
    report["job_s"] = runner.job_times
    return result, report


def write_trace(report, setup_trace, traced) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{report['workload']}-{report['seed']}.json"
    doc = {**report, "spans_format": ["name", "parent", "start", "end"], "setup": setup_trace, "pass": traced}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bunkbed" / "__init__.py").is_file():
        print(f"error: the bunkbed sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choices: {', '.join(workloads.WORKLOADS)}")
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(report["env"], sort_keys=True))
    for name, s in report.get("samples", {}).items():
        print(f"{name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']}")
    if args.trace:
        print(f"spans written to {report['trace_file']}")
    print("job median s: " + json.dumps({k: round(statistics.median(v), 6) for k, v in report["job_s"].items()}))
    print(f"raw wall time, median: pass {report['raw_wall_s']:.6g} s, set-up {report['raw_setup_s']:.6g} s")
    print(f"jobs: {result['attempted']} attempted, {result['failed']} failed, {report['passes']} untraced passes")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
