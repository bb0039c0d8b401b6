"""Write pinned.json: per-job output digests of every workload at the default seed.

Run from the repository root: python3 perfbench/pin.py

A run at the default seed compares each job's witness JSON, certificate
bytes or iq result with these digests (acceptance criterion 9 extended to
the whole batch).  Jobs without a result today (the pinned certify inputs
that exit 2) and verify jobs have no digest.  Re-pin only when the
workloads themselves change, never to make a changed output pass.
"""

import json
import sys
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    root = Path.cwd()
    run.import_program(root)
    pins = {}
    for workload in ("enumerate", "certify", "iq"):
        batch = workloads.make_batch(workload, checks.DEFAULT_SEED)
        with run.Runner(root, batch) as runner:
            result = runner.run_pass(traced=False)
        outcomes = checks.check_batch(batch, [result], None)
        wrong = [o.reason for o in outcomes if o.status == "wrong"]
        if wrong:
            print(f"error: {workload} outputs fail their checks: {wrong}", file=sys.stderr)
            return 1
        pins[workload] = [
            checks.pinned_digest(job, code, stdout, out) if outcome.status == "ok" else None
            for job, code, stdout, out, outcome in zip(
                batch.jobs, result["codes"], result["stdout"], result["out"], outcomes)]
    run.PINNED.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
