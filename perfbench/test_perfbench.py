"""Tests of the benchmark itself: seeded inputs, failure counting, smoke passes.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import benchtrace  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def keep_program_modules():
    """Workload set-up re-imports bunkbed; give other tests their modules back."""
    saved = {k: v for k, v in sys.modules.items() if k == "bunkbed" or k.startswith("bunkbed.")}
    yield
    for name in [k for k in sys.modules if k == "bunkbed" or k.startswith("bunkbed.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_same_seed_same_inputs():
    bb = workloads.load_program()
    rat = bb.exactnum.rat
    for kind, degree, bits, _ in workloads.ROOT_SHAPES:
        first = workloads.planted_poly(random.Random(5), kind, degree, bits, rat, 1)
        again = workloads.planted_poly(random.Random(5), kind, degree, bits, rat, 1)
        other = workloads.planted_poly(random.Random(6), kind, degree, bits, rat, 1)
        assert first == again
        assert first != other
        assert len(first.coeffs) == degree + 1
    graph, _, _ = workloads.grid_network(bb, 3, 4, random.Random(5))
    again, _, _ = workloads.grid_network(bb, 3, 4, random.Random(5))
    other, _, _ = workloads.grid_network(bb, 3, 4, random.Random(6))
    assert graph.edges == again.edges
    assert graph.edges != other.edges


def test_reference_clock_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with refclock.ReferenceClock() as clock:
        _, raw, ref = clock.time(lambda: sum(i * i for i in range(300000)))
    assert raw > 0 and ref > 0
    assert len(clock.starts) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _roots_job(seed=3):
    _, jobs = workloads.build("roots", seed, smoke=True)
    job = next(j for j in jobs if j.name.startswith("sturm"))
    return job, job.run()


def test_shifted_window_fails():
    job, (hi, roots, negative) = _roots_job()
    job.check((hi, roots, negative))
    assert negative, "the chosen instance should have a negative window"
    a, b = negative[0]
    shift = b - a
    with pytest.raises(workloads.JobFailure):
        job.check((hi, roots, [(a + shift / 2, b + shift / 2)] + negative[1:]))


def test_moved_root_fails():
    job, (hi, roots, negative) = _roots_job()
    iv = roots[0]
    moved = type(iv)(iv.low + iv.width() * 2, iv.high + iv.width() * 2, iv.multiplicity)
    with pytest.raises(workloads.JobFailure):
        job.check((hi, [moved] + roots[1:], negative))


def test_corrupted_output_counts_as_failed_job():
    _, jobs = workloads.build("table2", workloads.DEFAULT_SEED, smoke=True)
    honest = jobs[0].run

    def shifted():
        row = honest()
        return {**row, "window_2dp": ["0.71", row["window_2dp"][1]]}

    jobs[0].run = shifted
    with refclock.ReferenceClock() as clock:
        runner = run.Runner("table2", jobs, workloads.load_reference(), clock)
        runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_raising_job_counts_as_failed_job():
    _, jobs = workloads.build("networks", 11, smoke=True)

    def guard():
        raise ValueError("guard tripped")

    jobs[0].run = guard
    with refclock.ReferenceClock() as clock:
        runner = run.Runner("networks", jobs, {}, clock)
        runner.run_pass()
    assert runner.failed == 1
    assert runner.attempted == len(jobs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass(workload):
    result, _ = run.run_workload(workload, workloads.DEFAULT_SEED, 0, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    traced, report = run.run_workload(workload, 9, 0, trace=True, smoke=True)
    assert traced["correct"]
    assert list(traced["metrics"]) == [name for name, _ in benchtrace.PER_LAYER]
    shares = [m["value"] for name, m in traced["metrics"].items() if name.endswith("_pct")]
    assert all(0 <= share <= 100 + 1e-9 for share in shares)
    (HERE.parent / report["trace_file"]).unlink()


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(benchtrace.PER_LAYER)
