"""Byte identity of every benchmark job against the benchmark's pinned digests.

Each workload is built at the default seed through ``perfbench/workloads.py``,
and the output of every job that ``perfbench/reference.json`` pins is checked
and digested as the benchmark digests it.  Each digest must equal the pinned
one; the perfbench files are only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
OTHER_JOBS = [(workload, name) for workload in ("table2", "networks", "roots") for name in sorted(REFERENCE[workload])]


def _program_modules():
    return {k: v for k, v in sys.modules.items() if k == "bunkbed" or k.startswith("bunkbed.")}


@pytest.fixture(scope="module")
def workload_jobs():
    """(workloads module, {workload: {job name: job}}) at the default seed.

    Each set-up re-imports bunkbed, so every other test gets its modules
    back afterwards.
    """
    saved = _program_modules()
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        jobs = {}
        for workload in workloads.WORKLOADS:
            _, built = workloads.build(workload, workloads.DEFAULT_SEED)
            jobs[workload] = {job.name: job for job in built}
        yield workloads, jobs
    finally:
        del sys.modules[spec.name]
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def _assert_digest(workload_jobs, workload, name):
    workloads, jobs = workload_jobs
    job = jobs[workload][name]
    out = job.run()
    job.check(out)
    assert workloads.digest(job.to_json(out)) == REFERENCE[workload][job.ref_key]


@pytest.mark.parametrize("name", sorted(REFERENCE["verify"]))
def test_verify_job_matches_reference_digest(workload_jobs, name):
    _assert_digest(workload_jobs, "verify", name)


@pytest.mark.parametrize("workload, name", OTHER_JOBS, ids=[f"{w}-{n}" for w, n in OTHER_JOBS])
def test_job_matches_reference_digest(workload_jobs, workload, name):
    _assert_digest(workload_jobs, workload, name)
