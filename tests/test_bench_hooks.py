"""The benchmark under perfbench/ reaches into quasifix by name: its tracer
wraps the functions listed in SPANS and COUNTERS, and its workload and check
modules import names lazily.  A rename or deletion in quasifix must fail
here, not only in the benchmark's own (much slower) self-tests.  So must a
change of the output bytes that the benchmark pins for its default seed.
"""

import ast
import contextlib
import hashlib
import io
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from quasifix import certify
from quasifix.certify import CertificateFormatError, certificate_from_bytes, verify_certificate
from quasifix.cli import main as cli_main
from quasifix.dynamics import QuasiFixedWitness
from quasifix.gf import FqElement, FqField
from quasifix.matrep import Mat2, MatTuple, ProjPoint
from quasifix.poly import MPoly

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
TARGETS = sorted({target for _, _, target, _ in tracer.SPANS}
                 | {target for _, target in tracer.COUNTERS})


def _forbid_object_arithmetic(monkeypatch):
    """Make field-element and polynomial arithmetic raise: every benchmark job
    computes on logs, states and packed term maps instead."""
    for cls, names in ((FqElement, ("__add__", "__sub__", "__mul__", "__pow__", "inv",
                                    "frobenius")),
                       (MPoly, ("__add__", "__mul__", "__pow__", "substitute"))):
        for name in names:
            def refuse(*args, _name=f"{cls.__name__}.{name}", **kwargs):
                raise AssertionError(f"a benchmark job called {_name}")
            monkeypatch.setattr(cls, name, refuse)


def _forbid_matrix_objects(monkeypatch):
    """Make building a Mat2, MatTuple or ProjPoint raise: the certificate
    search and the verifier draw, walk and check log states."""
    for cls in (Mat2, MatTuple, ProjPoint):
        def refuse(*args, _name=cls.__name__, **kwargs):
            raise AssertionError(f"a benchmark job built a {_name}")
        monkeypatch.setattr(cls, "__init__", refuse)


def _quasifix_imports():
    """(file, module, name) for every `from quasifix... import name` in perfbench."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "quasifix"):
                found.update((path.name, node.module, alias.name) for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("target", TARGETS)
def test_tracer_target_resolves(target):
    importlib.import_module(target.split(":")[0])
    _owner, _attr, original = tracer._resolve(target)
    assert callable(original)


@pytest.mark.parametrize("source,module,name", _quasifix_imports())
def test_perfbench_import_resolves(source, module, name):
    assert hasattr(importlib.import_module(module), name), f"{source}: {module}.{name}"


def test_verify_batch_inputs_unchanged():
    # the verify workload builds its certificates with matrep (random starts,
    # orbit steps, word values), so a change in draws or stepping would change
    # what it measures without failing any output check
    batch = _load("workloads").make_batch("verify", 1)
    assert batch.fingerprint() == (
        "df296bfc98c8de1de1dcb2c8bc4a3b23c37bfac836f44f1e20c9eb7b2e1b96e3")


def _library_verdict(path: Path):
    """The verdict dict of the certificate file at path, or its format error."""
    try:
        return verify_certificate(certificate_from_bytes(path.read_bytes())).to_dict()
    except CertificateFormatError as exc:
        return f"format: {exc}"


def _command_verdict(path: Path):
    """The same, from `quasifix verify` run through cli.main: the verdict it
    prints, or the format error it reports."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["verify", str(path), "--format", "json"])
    if code == 2:
        return "format: " + err.getvalue().removeprefix("error: ").removesuffix("\n")
    return json.loads(out.getvalue())["verdict"]


@pytest.mark.parametrize("seed,digest", [
    (1, "467ed4a3e8a531c6550186f624873f781f6bc7100aec6ef60d9ba732ebe604fd"),
    (2, "599c399ab9b45a557695ad9f13ad00df10563474643b27d8f15d4ee41d931076"),
    (3, "3878024186e439feb75da321b5987d12c4d8aa5578c66fd67f55c44922572813"),
])
def test_verify_batch_verdicts_unchanged(seed, digest, monkeypatch, tmp_path):
    # the benchmark's own check compares only the names of the failing checks,
    # so pin every verdict in full: check names, statuses, details and order,
    # through the library's reader and verifier and through the command.
    # Every file is JSON with integer coefficients, canonical or written by
    # json.dumps, so none falls back to certificate_from_dict
    batch = _load("workloads").make_batch("verify", seed)
    for name, blob in batch.files.items():
        (tmp_path / name).write_bytes(blob)
    _forbid_object_arithmetic(monkeypatch)
    _forbid_matrix_objects(monkeypatch)
    from_dict, calls = certify.certificate_from_dict, []
    monkeypatch.setattr(certify, "certificate_from_dict",
                        lambda *args: calls.append(args) or from_dict(*args))
    for route in (_library_verdict, _command_verdict):
        h = hashlib.sha256()
        for name in sorted(batch.files):
            out = route(tmp_path / name)
            h.update(name.encode() + b"\0" + json.dumps(out, sort_keys=True).encode() + b"\n")
        assert (route.__name__, h.hexdigest(), len(batch.files), calls) == (
            route.__name__, digest, 134, [])


def _run_jobs(batch, tmp_path, monkeypatch):
    """(job, exit code, stdout) of each job of the batch, run through cli.main.
    Certify jobs read ../in/endo_*.json and write cert_*.json, so the jobs run
    in a pass directory beside in/, which holds the batch's files."""
    (tmp_path / "in").mkdir()
    for name, blob in batch.files.items():
        (tmp_path / "in" / name).write_bytes(blob)
    (tmp_path / "pass").mkdir()
    monkeypatch.chdir(tmp_path / "pass")
    for job in batch.jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(job["argv"])
        yield job, code, out.getvalue()


@pytest.mark.parametrize("workload", ["enumerate", "certify", "iq"])
def test_default_seed_outputs_match_the_pinned_digests(workload, tmp_path, monkeypatch):
    # the benchmark compares these digests only inside its runs; a job that
    # exits non-zero has no pinned result
    pins = json.loads((PERFBENCH / "pinned.json").read_text())[workload]
    batch = _load("workloads").make_batch(workload, 1)
    _forbid_object_arithmetic(monkeypatch)
    if workload == "enumerate":
        # witnesses go from the scan's keys to the output text: no element,
        # evaluation or witness record is made on the way
        for cls, name in ((FqField, "from_int"), (MPoly, "evaluate"),
                          (QuasiFixedWitness, "__new__")):
            def refuse(*args, _name=f"{cls.__name__}.{name}", **kwargs):
                raise AssertionError(f"an enumerate job called {_name}")
            monkeypatch.setattr(cls, name, refuse)
    if workload == "certify":
        _forbid_matrix_objects(monkeypatch)
    digests = []
    for job, code, out in _run_jobs(batch, tmp_path, monkeypatch):
        if code != 0:
            digests.append(None)
        elif job["kind"] == "certify":
            cert = Path(job["expect"]["out"]).read_bytes()
            digests.append(hashlib.sha256(cert).hexdigest()[:16])
        else:
            digests.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert len(digests) == len(pins)
    assert [d for d, pin in zip(digests, pins) if pin is not None] == \
        [pin for pin in pins if pin is not None]


@pytest.mark.parametrize("workload,seed,digest", [
    pytest.param("certify", 2, "493bacb54d20fec048dd4f75c4d09e08d446501122ba233577a2bf6b3b090968",
                 id="certify-2"),
    pytest.param("certify", 3, "d41bf7cf804fa199b5248a5590eb33e1734e2fa643b12455d8af498d718a6c23",
                 id="certify-3"),
    pytest.param("enumerate", 2, "f30c01027b34bb178bac8cbc974beedb4b7af932e1456a759d60cf1e7d9f75f5",
                 id="enumerate-2"),
    pytest.param("enumerate", 3, "dc5e7c98b8ab93efe38984d79a263ba89b475f09b3e3f588909bfd6c81efecc8",
                 id="enumerate-3"),
])
def test_outputs_at_seeds_2_and_3_match_their_digests(workload, seed, digest, tmp_path,
                                                      monkeypatch):
    # pinned.json pins seed 1 only; one digest over every job's exit code,
    # stdout and certificate bytes (enumerate writes none) pins the certificate
    # search's draws and the quasi-fixed scan's witnesses at two more seeds
    h = hashlib.sha256()
    for job, code, out in _run_jobs(_load("workloads").make_batch(workload, seed), tmp_path,
                                    monkeypatch):
        cert = job["expect"].get("out")
        h.update(b"%d\n%s\0%s\n" % (code, out.encode(), Path(cert).read_bytes()
                                     if cert and Path(cert).exists() else b""))
    assert h.hexdigest() == digest
