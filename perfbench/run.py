"""quasifix benchmark: seeded CLI batch workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload {enumerate,certify,verify,iq} \
        --seed N --seconds S --trace {0,1}

A run builds the workload's batch from the seed (outside every timing),
then starts fresh interpreters, each of which runs the whole batch once
through `quasifix.cli.main(argv)` as a closed loop with one client: each
job starts when the previous one returns, in one process with no threads.
The number of passes follows from `--seconds` and the workload's nominal
pass time (PASS_S), never from how fast the code under test runs, so two
commits measured with the same `--seconds` make the same number of passes.
Outputs are checked after the passes.

With `--trace 0` the last line of stdout holds the end-to-end metrics:

- setup_s: fresh interpreter start until `import quasifix.cli` is done
  (median over the run's set-up starts);
- wall_s: the whole batch in one pass, lazy caches filling inside it, with
  each job at its median time over the run's passes;
- job_p50_ms, job_p90_ms: percentiles of those per-job times;
- ok_frac: jobs whose output passed its check, over jobs attempted
  (1 - failed_frac; the report line above it also prints failed_frac);
- peak_rss_mb: peak resident memory of a pass process (median over passes).

On a shared machine the speed swings by up to a factor of two within
seconds, so every time is scaled to the machine's nominal speed with the
reference loop of speed.py, read right before each job (a set-up start
takes the factor of the pass that follows it).  The raw job times, the
reference readings and every pass's own wall time, percentiles and scale
factor stay in the result file.

With `--trace 1` untraced and traced passes alternate, and the last line
holds the per-layer metrics of the traced pass with the median wall time
(see tracer.py), the gf micro-benchmark and the tracing overhead.

The exit code is 0 when every output checks out, 1 when one does not, and 2
when the benchmark cannot run at all (for example without `src/quasifix`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
PINNED = HERE / "pinned.json"

# Seconds of a run given to each pass: the measured time of one untraced pass
# (in brackets: 2-vCPU Xeon, Python 3.11, at the commit that defined the
# benchmark, on a calm and on a busy host) plus its share of the run's set-up
# starts, batch building and checks.  A run makes max(MIN_PASSES, seconds //
# PASS_S) passes; at 25 s a whole run takes 25-35 s on that host.
PASS_S = {
    "enumerate": 6.0,  # 4 passes at 25 s (4.6-7.0 s a pass)
    "certify": 8.0,  # 3 passes (4.0-6.4 s)
    "verify": 3.5,  # 7 passes (2.1-3.5 s)
    "iq": 2.0,  # 12 passes (0.8-1.7 s)
}
MIN_PASSES = 3
# no pass starts after this many seconds of passes, so that a run of a much
# slower program still ends within 180 s; the result says how many it made
PASS_CEILING_S = 110
# set-up starts in an untraced run, spread over its passes
SETUP_STARTS = 16
CHILD_TIMEOUT_S = 150
HASH_SEED = "0"



def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, int(seconds // PASS_S[workload]))


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class BenchError(RuntimeError):
    """The benchmark cannot run (missing sources, a crashed pass)."""


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# passes in fresh interpreters

class Runner:
    """Fresh-interpreter passes over one batch, in a scratch directory of the checkout."""

    def __init__(self, root: Path, batch):
        self.batch = batch
        self.work = root / ".bench_work" / f"{batch.workload}-{batch.seed}-{os.getpid()}"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.env["PYTHONHASHSEED"] = HASH_SEED
        self.count = 0

    def __enter__(self) -> "Runner":
        if self.work.exists():
            shutil.rmtree(self.work)
        (self.work / "in").mkdir(parents=True)
        for name, blob in self.batch.files.items():
            (self.work / "in" / name).write_bytes(blob)
        with open(self.work / "jobs.json", "w", encoding="utf-8") as handle:
            json.dump([job["argv"] for job in self.batch.jobs], handle)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _spawn(self, args: list[str], cwd: Path) -> tuple[str, float]:
        """Run child.py to the end; its stdout and the clock just before the start."""
        started = _monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=cwd, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"a pass exceeded {CHILD_TIMEOUT_S} s") from None
        except BaseException:  # interrupted: never leave the pass running
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise BenchError(f"pass process failed:\n{err}")
        return out, started

    def time_setup(self) -> float:
        """Raw seconds from starting an interpreter until it has imported the CLI."""
        out, started = self._spawn(["--ready-only"], self.work)
        return float(out) - started

    def run_pass(self, traced: bool) -> dict:
        self.count += 1
        cwd = self.work / f"pass_{self.count}"
        cwd.mkdir()
        result_path = self.work / f"pass_{self.count}.json"
        self._spawn([str(self.work / "jobs.json"), str(result_path), "1" if traced else "0"],
                    cwd)
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        result["scale"] = speed.factors(result["ref_s"])
        result["job_scaled_s"] = [t * f for t, f in zip(result["job_s"], result["scale"])]
        result["out"] = []
        for job in self.batch.jobs:
            path = cwd / job["expect"]["out"] if "out" in job["expect"] else None
            result["out"].append(path.read_bytes() if path and path.is_file() else None)
        shutil.rmtree(cwd)
        result_path.unlink()
        return result


# ---------------------------------------------------------------------------
# metrics

def pass_scale(result: dict) -> float:
    """The pass's speed factor, from all its reference readings."""
    return speed.factor(result["ref_s"])


def pass_metrics(result: dict) -> dict[str, float]:
    """One pass's raw times, its speed factor and its memory."""
    job_ms = [t * 1000 for t in result["job_s"]]
    return {"wall_s": result["wall_s"],
            "job_p50_ms": statistics.median(job_ms),
            "job_p90_ms": statistics.quantiles(job_ms, n=10, method="inclusive")[8],
            "scale": pass_scale(result),
            "peak_rss_mb": result["peak_rss_kb"] / 1024}


def job_medians(passes: list[dict]) -> list[float]:
    """Each job's median scaled time over the passes, in seconds."""
    return [statistics.median(times) for times in zip(*(r["job_scaled_s"] for r in passes))]


def median_of_passes(mid: list[float]) -> dict[str, float]:
    """Batch time and job percentiles of the per-job median times."""
    mid_ms = [t * 1000 for t in mid]
    return {"wall_s": sum(mid),
            "job_p50_ms": statistics.median(mid_ms),
            "job_p90_ms": statistics.quantiles(mid_ms, n=10, method="inclusive")[8]}


def layer_metrics(result: dict, untraced_wall: float, gf_ns: dict[str, float]) -> dict:
    """Per-layer metrics of a traced pass; `untraced_wall` is scaled, like the
    traced wall it is compared with in trace.overhead_frac (all else is raw)."""
    from tracer import LAYERS, SPANS

    trace = result["trace"]
    agg, counts = trace["agg"], trace["counts"]

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    wall = result["wall_s"]
    out_bytes = sum(len(s.encode()) for s in result["stdout"]) + sum(
        len(b) for b in result["out"] if b)
    points = counts.get("dynamics.points_scanned", 0)
    m = {
        "gf.mul_calls": counts["gf.mul_calls"],
        "gf.add_calls": counts["gf.add_calls"],
        "gf.inv_calls": counts["gf.inv_calls"],
        "gf.frobenius_calls": counts["gf.frobenius_calls"],
        "gf.field_create_s": total("gf.field_create"),
        "gf.min_subfield_degree_s": total("gf.min_subfield_degree"),
        **gf_ns,
        "poly.evaluate_calls": calls("poly.evaluate"),
        "poly.evaluate_self_s": own("poly.evaluate"),
        "poly.normal_form_calls": calls("poly.normal_form"),
        "poly.normal_form_self_s": own("poly.normal_form"),
        "poly.normal_form_terms_out": counts.get("poly.normal_form_terms_out", 0),
        "poly.iterate_self_s": own("poly.iterate"),
        "poly.parse_self_s": own("poly.parse"),
        "freegroup.injectivity_self_s": own("freegroup.injectivity"),
        "freegroup.prime_selection_self_s": own("freegroup.prime_selection"),
        "freegroup.prime_selection_letters": counts.get("freegroup.prime_selection_letters", 0),
        "freegroup.word_evaluate_calls": counts["freegroup.word_evaluate_calls"],
        "matrep.orbit_calls": calls("matrep.orbit"),
        "matrep.orbit_found_frac": ratio(counts.get("matrep.orbit_found", 0),
                                         calls("matrep.orbit")),
        "matrep.orbit_steps": counts.get("matrep.orbit_steps", 0),
        "matrep.step_calls": calls("matrep.step"),
        "matrep.step_self_s": own("matrep.step"),
        "matrep.step_us": ratio(total("matrep.step"), calls("matrep.step")) * 1e6,
        "matrep.pi_w_calls": calls("matrep.pi_w"),
        "matrep.pi_w_self_s": own("matrep.pi_w"),
        "dynamics.enumerate_calls": counts.get("dynamics.enumerate_calls", 0),
        "dynamics.enumerate_self_s": own("dynamics.enumerate"),
        "dynamics.points_scanned": points,
        "dynamics.witnesses": counts.get("dynamics.witnesses", 0),
        "dynamics.witness_yield": ratio(counts.get("dynamics.witnesses", 0), points),
        "dynamics.avoiding_calls": calls("dynamics.avoiding"),
        "dynamics.avoiding_self_s": own("dynamics.avoiding"),
        "certify.search_calls": calls("certify.search"),
        "certify.search_self_s": own("certify.search"),
        "certify.found_frac": ratio(counts.get("certify.search_found", 0),
                                    calls("certify.search")),
        "certify.verify_calls": calls("certify.verify"),
        "certify.verify_self_s": own("certify.verify"),
        "certify.wreath_self_s": own("certify.wreath"),
        "certify.parse_self_s": own("certify.parse"),
        "cli.main_calls": calls("cli.main"),
        "cli.output_bytes": out_bytes,
        "trace.overhead_frac": wall * pass_scale(result) / untraced_wall - 1,
        "trace.unattributed_s": wall - trace["top_s"],
        "trace.wall_s": wall,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own(name) for lay, name, _, _ in SPANS if lay == layer)
    return m


# ---------------------------------------------------------------------------

def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc, "cpu": cpu,
            "pythonhashseed": HASH_SEED}


def import_program(root: Path) -> None:
    """Put the checkout's `src/` first on sys.path and import quasifix from it."""
    if not (root / "src" / "quasifix" / "__init__.py").is_file():
        raise BenchError(f"no quasifix sources under {root / 'src'}; run from the "
                         "repository root")
    sys.path.insert(0, str(root / "src"))
    import quasifix
    if root.resolve() not in Path(quasifix.__file__).resolve().parents:
        raise BenchError(f"imported quasifix from {quasifix.__file__}, not from {root}")


def measure(workload: str, seed: int, seconds: float, traced: bool, root: Path,
            limit: int | None = None) -> dict:
    """One benchmark run; `limit` keeps only the first jobs (for self-tests)."""
    import checks
    import workloads

    import_program(root)
    batch = workloads.make_batch(workload, seed)
    if limit is not None:
        batch.jobs = batch.jobs[:limit]
    with Runner(root, batch) as runner:
        runner.time_setup()  # the first start writes bytecode caches; not a sample
        plain, tagged, setup_raw, setup_s = [], [], [], []
        passes = pass_count(workload, seconds)
        # a traced run alternates untraced and traced passes
        rounds = max(1, passes // 2) if traced else passes
        began = _monotonic()
        for i in range(rounds):
            # set-up starts go in between the passes and take the speed factor
            # of the pass that follows them
            starts = 0 if traced else (SETUP_STARTS * (i + 1) // rounds
                                       - SETUP_STARTS * i // rounds)
            raw = [runner.time_setup() for _ in range(starts)]
            plain.append(runner.run_pass(traced=False))
            setup_raw += raw
            setup_s += [t * pass_scale(plain[-1]) for t in raw]
            if traced:
                tagged.append(runner.run_pass(traced=True))
            if _monotonic() - began > PASS_CEILING_S:
                break

    pinned = None
    if seed == checks.DEFAULT_SEED and limit is None and PINNED.is_file():
        pinned = json.loads(PINNED.read_text()).get(workload)
    outcomes = checks.check_batch(batch, plain + tagged, pinned)
    failed = sum(o.status != "ok" for o in outcomes)
    wrong = [(i, o.reason) for i, o in enumerate(outcomes) if o.status == "wrong"]
    per_pass = [pass_metrics(r) for r in plain]
    per_job = f"{len(batch.jobs)} jobs, median of {len(plain)} passes"
    samples = {"setup_s": f"{len(setup_s)} starts",
               "wall_s": per_job, "job_p50_ms": per_job, "job_p90_ms": per_job,
               "ok_frac": f"{len(batch.jobs)} jobs", "peak_rss_mb": f"{len(plain)} passes"}
    if traced:
        import gfmicro
        untraced_wall = statistics.median(r["wall_s"] * pass_scale(r) for r in plain)
        chosen = sorted(tagged, key=lambda r: r["wall_s"])[(len(tagged) - 1) // 2]
        metrics = layer_metrics(chosen, untraced_wall, gfmicro.run(seed))
        units = metric_units("per_layer")
    else:
        mid_s = job_medians(plain)
        metrics = median_of_passes(mid_s)
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in per_pass)
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["ok_frac"] = 1 - failed / len(batch.jobs)
        units = metric_units("end_to_end")
    return {
        "correct": not wrong,
        "attempted": len(batch.jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "detail": {
            "workload": workload, "seed": seed, "trace": int(traced),
            "machine": machine(), "input_size": batch.size,
            "passes": {"untraced": len(plain), "traced": len(tagged)},
            "samples": samples, "wrong": wrong,
            "failed_jobs": [(i, o.reason) for i, o in enumerate(outcomes)
                            if o.status == "failed"],
            "failed_frac": failed / len(batch.jobs),
            "per_pass": per_pass,
            "job_ms": [round(t * 1000, 4) for t in mid_s] if not traced else None,
            "raw": [{"job_s": r["job_s"], "ref_s": r["ref_s"]} for r in plain],
            "setup_raw_s": setup_raw,
            "setup_scaled_s": setup_s,
            "spans": chosen["trace"]["records"] if traced else None,
        },
    }


def report(result: dict, out) -> None:
    d = result["detail"]
    print(f"quasifix benchmark: workload {d['workload']}, seed {d['seed']}, "
          f"trace {d['trace']}, {result['attempted']} jobs, passes {d['passes']}", file=out)
    for name, metric in result["metrics"].items():
        samples = d["samples"].get(name)
        note = f"  ({samples})" if samples else ""
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}{note}", file=out)
    print(f"  {'failed_frac':36s} {d['failed_frac']:14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} jobs)", file=out)
    for index, reason in d["failed_jobs"] + d["wrong"]:
        print(f"  job {index}: {reason}", file=out)
    print("# meta " + json.dumps({"machine": d["machine"], "input_size": d["input_size"],
                                  "seed": d["seed"]}, sort_keys=True), file=out)


def main(argv: list[str] | None = None) -> int:
    import checks
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds like an exception: passes killed, work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1) + "\n")
    report(result, sys.stdout)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
