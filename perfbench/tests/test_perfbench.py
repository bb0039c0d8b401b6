"""Self-tests of the benchmark: seeded inputs, output checks, emitted metrics.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from quasifix.cli import main as cli_main  # noqa: E402


def cli(argv, cwd=ROOT):
    out, err = io.StringIO(), io.StringIO()
    before = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        os.chdir(before)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first = workloads.make_batch(workload, 3)
    assert first.fingerprint() == workloads.make_batch(workload, 3).fingerprint()
    assert len(first.jobs) >= 100


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    assert (workloads.make_batch(workload, 3).fingerprint()
            != workloads.make_batch(workload, 4).fingerprint())


def test_flipped_witness_coordinate_counts_as_failed():
    batch = workloads.make_batch("enumerate", 3)
    for job in batch.jobs:
        if job["kind"] != "quasifixed":
            continue
        code, stdout = cli(job["argv"])
        data = json.loads(stdout)
        if data["count"]:
            break
    assert checks.check_job(job, code, stdout, None).status == "ok"
    witness = data["witnesses"][-1]
    witness["point"][0][0] = (witness["point"][0][0] + 1) % witness["p"]
    flipped = json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert checks.check_job(job, code, flipped, None).status == "wrong"
    result = {"codes": [code], "stdout": [flipped], "stderr": [""], "out": [None]}
    batch.jobs = [job]
    (outcome,) = checks.check_batch(batch, [result], None)
    assert outcome.status == "wrong"


def test_flipped_certificate_byte_counts_as_failed(tmp_path):
    batch = workloads.make_batch("certify", 3)
    job = next(j for j in batch.jobs if j["expect"]["word"] != "aB"
               and j["expect"]["images"] != ["aabb", "ab", "c"])
    (tmp_path / "in").mkdir()
    (tmp_path / "run").mkdir()
    for name, blob in batch.files.items():
        (tmp_path / "in" / name).write_bytes(blob)
    code, stdout = cli(job["argv"], cwd=tmp_path / "run")
    cert = (tmp_path / "run" / job["expect"]["out"]).read_bytes()
    assert checks.check_job(job, code, stdout, cert).status == "ok"
    pos = cert.index(b'"trace":[[[[') + len(b'"trace":[[[[')
    flipped = cert[:pos] + (b"2" if cert[pos:pos + 1] != b"2" else b"1") + cert[pos + 1:]
    assert checks.check_job(job, code, stdout, flipped).status == "wrong"


def test_pinned_failures_are_counted_but_not_wrong():
    job = {"kind": "certify", "argv": [], "expect": {}}
    assert checks.check_job(job, 2, "", None).status == "failed"


def test_lost_pinned_result_counts_as_wrong():
    batch = workloads.make_batch("iq", 3)
    batch.jobs = batch.jobs[:1]
    result = {"codes": [2], "stdout": [""], "stderr": ["error"], "out": [None]}
    (outcome,) = checks.check_batch(batch, [result], None)
    assert outcome.status == "failed"
    (outcome,) = checks.check_batch(batch, [result], ["0123456789abcdef"])
    assert outcome.status == "wrong"


def test_times_scale_with_the_reference_readings_around_them():
    refs = [0.001] * 6 + [0.002] * 6
    factors = speed.factors(refs, window=1)
    assert factors[0] == pytest.approx((speed.NOMINAL_S / 0.001) ** speed.EXPONENT)
    assert factors[-1] == pytest.approx((speed.NOMINAL_S / 0.002) ** speed.EXPONENT)
    # a lone outlier reading does not move its neighbours' scale
    refs[3] = 0.01
    assert speed.factors(refs, window=2)[3] == pytest.approx(factors[0])
    assert speed.reference() > 0


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_emitted(workload):
    spec = _spec()
    plain = run.measure(workload, 5, 0, False, ROOT, limit=12)
    assert plain["correct"], plain["detail"]["wrong"]
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.measure(workload, 5, 0, True, ROOT, limit=12)
    assert traced["correct"], traced["detail"]["wrong"]
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    assert set(values) == {m["name"] for m in spec["per_layer"]}
    layer_self = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_self + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"])
    assert values["cli.main_calls"] == 12

    for name in _layers()["predicted_zero"].get(workload, []):
        assert values[name] == 0, name


def _layers():
    return json.loads((BENCH / "layers.json").read_text())


def test_layer_map_covers_every_per_layer_metric():
    mapped = {name for groups in _layers()["layers"].values()
              for group in groups for name in group["metrics"]}
    assert mapped == {m["name"] for m in _spec()["per_layer"]}


def test_pins_cover_the_default_batches():
    pins = json.loads(run.PINNED.read_text())
    for workload, digests in pins.items():
        assert len(digests) == len(workloads.make_batch(workload, checks.DEFAULT_SEED).jobs)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *_spec()["command"][1:], "--workload", "iq",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
