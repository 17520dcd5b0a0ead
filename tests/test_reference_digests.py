"""Byte identity of the bunkbed checks against the benchmark's pinned digests.

The verify workload is built at the default seed through
``perfbench/workloads.py``, and the outputs of its bunkbed, p-threshold and
conjecture-scan jobs are digested as the benchmark digests them.  Each digest
must equal the one pinned in ``perfbench/reference.json``, which is only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
JOBS = ("bunkbed-small4", "bunkbed-K4-arboreal", "p-threshold-K4", "conjectures")


def _program_modules():
    return {k: v for k, v in sys.modules.items() if k == "bunkbed" or k.startswith("bunkbed.")}


@pytest.fixture(scope="module")
def verify_workload():
    """(workloads module, verify jobs by name); the set-up re-imports bunkbed,
    so every other test gets its modules back afterwards."""
    saved = _program_modules()
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        _, jobs = workloads.build("verify", workloads.DEFAULT_SEED)
        yield workloads, {job.name: job for job in jobs}
    finally:
        del sys.modules[spec.name]
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(saved)


@pytest.mark.parametrize("name", JOBS)
def test_verify_job_matches_reference_digest(verify_workload, name):
    workloads, jobs = verify_workload
    job = jobs[name]
    out = job.run()
    job.check(out)
    want = workloads.load_reference()["verify"][job.ref_key]
    assert workloads.digest(job.to_json(out)) == want
