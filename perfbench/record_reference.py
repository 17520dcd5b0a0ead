"""Record the digest of every job's output for the default seed.

Usage, from the repository root:

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted: afterwards the benchmark
fails every job whose output digest differs from the one recorded here.  It
also confirms that the table2 rows rebuild, byte for byte, the payload that
`bunkbed table2 --n 3,4,5,6,11,21 --p 1/100 --out FILE` writes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for workload in workloads.WORKLOADS:
        bb, jobs = workloads.build(workload, workloads.DEFAULT_SEED)
        outputs = {}
        for job in jobs:
            out = job.run()
            job.check(out)
            outputs[job.name] = out
        reference[workload] = {
            job.ref_key: workloads.digest(job.to_json(outputs[job.name])) for job in jobs if job.ref_key
        }
        print(f"{workload}: {len(reference[workload])} digests", flush=True)
        if workload == "table2":
            rows = [outputs[job.name] for job in jobs]
            ours = json.dumps(workloads.table2_payload(rows), indent=1)
            (HERE / "out").mkdir(exist_ok=True)
            report = HERE / "out" / "table2-cli.json"
            n_arg = ",".join(str(n) for n in workloads.TABLE2_N)
            p_arg = "/".join(str(x) for x in workloads.TABLE2_P)
            code = bb.cli.main(["table2", "--n", n_arg, "--p", p_arg, "--out", str(report)])
            with open(report) as fh:
                theirs = json.dumps(json.load(fh)["payload"], indent=1)
            if code != 0 or ours != theirs:
                print("error: table2 rows do not rebuild the CLI payload", file=sys.stderr)
                return 1
            reference["table2_payload_sha256"] = workloads.digest(json.loads(ours))
            print("table2: payload identical to the CLI's", flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
