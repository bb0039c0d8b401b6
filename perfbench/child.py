"""One pass of a batch in a fresh interpreter.

Usage: python3 child.py --ready-only
       python3 child.py JOBS_JSON RESULT_JSON TRACED(0|1)

The first thing this script does is import the CLI, then it records
CLOCK_MONOTONIC: the parent took the same clock just before starting this
process, so the difference is interpreter start plus `import quasifix`.
Jobs then run back to back through `quasifix.cli.main(argv)` in this one
process (a closed loop with a single client); nothing is checked until the
whole batch is done.  Right before each job the reference loop of speed.py
reads the machine's speed; its time is kept apart and left out of wall_s.
"""

import time

import quasifix.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402  (imported after the ready mark on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from speed import reference  # noqa: E402


def run_batch(jobs: list[list[str]], traced: bool) -> dict:
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cli = quasifix.cli
    clock = time.perf_counter
    codes, job_s, ref_s, outs, errs = [], [], [], [], []
    batch_start = clock()
    for index, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        ref_s.append(reference())
        start = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed job, not a crashed batch
                traceback.print_exc()
                code = -1
        job_s.append(clock() - start)
        codes.append(code)
        outs.append(out.getvalue())
        errs.append(err.getvalue())
    wall = clock() - batch_start - sum(ref_s)
    result = {"wall_s": wall, "job_s": job_s, "ref_s": ref_s, "codes": codes,
              "stdout": outs, "stderr": errs,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = {"agg": tracer.agg, "counts": tracer.counts,
                           "top_s": tracer.top_s, "records": tracer.records}
    return result


def main(argv: list[str]) -> int:
    if argv == ["--ready-only"]:
        print(READY)
        return 0
    jobs_path, result_path, traced = argv
    with open(jobs_path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    result = run_batch(jobs, traced == "1")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
