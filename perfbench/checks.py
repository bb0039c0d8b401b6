"""Output checks, run after a batch and outside every timed region.

Each job ends as one of three statuses:

- "ok": the output passed its check;
- "failed": the job did not produce a result on valid input (a non-zero
  exit, or no certificate found); counted in `failed`;
- "wrong": the job produced an output that fails its check, or (at the
  default seed) no result where a digest is pinned; counted in `failed` and
  makes the benchmark report `correct: false`.

The checks do not reuse the code paths they check: witnesses are
re-evaluated term by term with repeated field multiplication (never
`MPoly.evaluate`), certificates are read back from disk and verified, and
the `iq` result is compared with Q^n and with the congruences it must report.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from workloads import Batch

DEFAULT_SEED = 1


@dataclass
class Outcome:
    status: str  # "ok" | "failed" | "wrong"
    reason: str = ""


def job_digest(code: int, stdout: str, stderr: str, out: bytes | None) -> str:
    h = hashlib.sha256(f"{code}\0".encode())
    for part in (stdout.encode(), stderr.encode(), out or b""):
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()[:16]


def pinned_digest(job: dict, code: int, stdout: str, out: bytes | None) -> str | None:
    """Digest of the witness JSON, certificate bytes or iq result; None if no result."""
    if code != 0:
        return None
    if job["kind"] == "certify":
        return hashlib.sha256(out or b"").hexdigest()[:16]
    if job["kind"] == "verify":
        return None
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# naive polynomial evaluation over quasifix.gf

def parse_terms(text: str, nvars: int, p: int) -> dict[tuple[int, ...], int]:
    """Term map of `c*x1^e1*...` text; the inputs are made by workloads.py."""
    terms: dict[tuple[int, ...], int] = {}
    for chunk in text.replace(" ", "").split("+"):
        coeff, expo = 1, [0] * nvars
        for factor in chunk.split("*"):
            if factor.isdigit():
                coeff = coeff * int(factor) % p
            else:
                var, _, power = factor[1:].partition("^")
                expo[int(var) - 1] += int(power) if power else 1
        key = tuple(expo)
        terms[key] = (terms.get(key, 0) + coeff) % p
    return {e: c for e, c in terms.items() if c}


def naive_eval(terms, point, field):
    total = field.zero()
    for expo, c in terms.items():
        term = field.scalar(c)
        for a, e in zip(point, expo):
            for _ in range(e):
                term = term * a
        total = total + term
    return total


def naive_frobenius(a, m: int):
    for _ in range(m):
        acc = a.field.one()
        for _ in range(a.field.p):
            acc = acc * a
        a = acc
    return a


def _min_degree(a, s: int) -> int:
    return next(d for d in range(1, s + 1) if s % d == 0 and naive_frobenius(a, d) == a)


def _witness_problem(witness: dict, coords, p: int, n: int, s_max: int, fields) -> str | None:
    from quasifix.gf import field_create

    s, m, vectors = witness["s"], witness["m"], witness["point"]
    if witness["p"] != p or not 1 <= s <= s_max or not 1 <= m <= s or len(vectors) != n:
        return f"witness tags out of range: {witness}"
    if any(len(v) != s or not all(0 <= c < p for c in v) for v in vectors):
        return f"witness coordinates malformed: {witness}"
    field = fields.get(s) or fields.setdefault(s, field_create(p, s))
    point = [field.element(v) for v in vectors]
    values = [naive_eval(f, point, field) for f in coords]
    if values != [naive_frobenius(a, m) for a in point]:
        return f"f(a) != Frob^{m}(a) for {witness}"
    if any(values == [naive_frobenius(a, k) for a in point] for k in range(1, m)):
        return f"m = {m} is not minimal for {witness}"
    if math.lcm(*(_min_degree(a, s) for a in point)) != s:
        return f"s = {s} is not the minimal field degree of {witness}"
    return None


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_enumerate(job: dict, code: int, stdout: str) -> Outcome:
    if code != 0:
        return Outcome("failed", f"exit {code}")
    argv = job["argv"]
    p, n, s_max = int(_arg(argv, "--p")), int(_arg(argv, "--n")), int(_arg(argv, "--smax"))
    coords = [parse_terms(t, n, p) for t in _arg(argv, "--map").split(",")]
    data = json.loads(stdout)
    fields: dict = {}
    if job["kind"] == "density":
        if not data.get("found"):
            return Outcome("wrong", "exit 0 without a witness")
        witness = data["witness"]
        problem = _witness_problem(witness, coords, p, n, s_max, fields)
        if problem:
            return Outcome("wrong", problem)
        point = [fields[witness["s"]].element(v) for v in witness["point"]]
        avoid = parse_terms(_arg(argv, "--w"), n, p)
        if naive_eval(avoid, point, fields[witness["s"]]).is_zero():
            return Outcome("wrong", "density witness lies on W")
        return Outcome("ok")
    witnesses = data["witnesses"]
    if data["count"] != len(witnesses):
        return Outcome("wrong", "count differs from the witness list")
    keys = [(w["s"], w["m"], w["point"]) for w in witnesses]
    if keys != sorted(keys) or len(set(map(repr, keys))) != len(keys):
        return Outcome("wrong", "witnesses not in strictly ascending (s, m, point) order")
    for witness in witnesses:
        problem = _witness_problem(witness, coords, p, n, s_max, fields)
        if problem:
            return Outcome("wrong", problem)
    return Outcome("ok")


def check_certify(job: dict, code: int, stdout: str, out: bytes | None) -> Outcome:
    from quasifix.certify import (CertificateFormatError, certificate_from_bytes,
                                  verify_certificate)

    if code != 0:
        return Outcome("failed", f"exit {code}")
    if out is None:
        return Outcome("wrong", "exit 0 but no certificate file")
    try:
        cert = certificate_from_bytes(out)
    except CertificateFormatError as exc:
        return Outcome("wrong", f"certificate does not parse: {exc}")
    expect = job["expect"]
    if list(cert.images) != expect["images"] or cert.word != expect["word"]:
        return Outcome("wrong", "certificate is for another endomorphism or word")
    verdict = verify_certificate(cert)
    if not verdict.passed:
        return Outcome("wrong", f"certificate fails verification: {verdict.failures}")
    data = json.loads(stdout)
    if not (data["found"] and data["verdict"]["passed"]):
        return Outcome("wrong", "stdout does not report a verified certificate")
    return Outcome("ok")


def check_iq(job: dict, code: int, stdout: str) -> Outcome:
    if code != 0:
        return Outcome("failed", f"exit {code}")
    expect = job["expect"]
    data = json.loads(stdout)
    if data["nvars"] != expect["n"] or data["Q"] != expect["Q"]:
        return Outcome("wrong", "result echoes another system")
    if data["dimension"] != expect["Q"] ** expect["n"]:
        return Outcome("wrong", f"dimension {data['dimension']} != Q^n")
    if data["congruence"] != {str(j): True for j in range(1, expect["j"] + 1)}:
        return Outcome("wrong", f"congruences {data['congruence']}")
    return Outcome("ok")


def check_verify(job: dict, code: int, stdout: str) -> Outcome:
    expected = job["expect"]["failure"]
    if code not in (0, 1):
        return Outcome("wrong", f"exit {code}")
    verdict = json.loads(stdout)["verdict"]
    failures = [c["name"] for c in verdict["checks"] if c["status"] == "fail"]
    if expected is None:
        if code != 0 or not verdict["passed"]:
            return Outcome("wrong", f"valid certificate rejected: {failures}")
    elif code != 1 or verdict["passed"] or expected not in failures:
        return Outcome("wrong", f"expected failure {expected}, got {failures}")
    return Outcome("ok")


def check_job(job: dict, code: int, stdout: str, out: bytes | None) -> Outcome:
    try:
        if job["kind"] in ("quasifixed", "density"):
            return check_enumerate(job, code, stdout)
        if job["kind"] == "certify":
            return check_certify(job, code, stdout, out)
        if job["kind"] == "iq":
            return check_iq(job, code, stdout)
        return check_verify(job, code, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome("wrong", f"output does not have the expected form: {exc!r}")


def check_batch(batch: Batch, passes: list[dict], pinned: list | None) -> list[Outcome]:
    """Full checks on the first pass; later passes must repeat it byte for byte."""
    first = passes[0]
    outcomes = []
    for i, job in enumerate(batch.jobs):
        code, stdout = first["codes"][i], first["stdout"][i]
        out = first["out"][i]
        outcome = check_job(job, code, stdout, out)
        digest = job_digest(code, stdout, first["stderr"][i], out)
        for other in passes[1:]:
            if job_digest(other["codes"][i], other["stdout"][i], other["stderr"][i],
                          other["out"][i]) != digest:
                outcome = Outcome("wrong", "output differs between passes")
        if pinned is not None and pinned[i] is not None:
            if outcome.status == "failed":
                outcome = Outcome("wrong", f"no result ({outcome.reason}) where seed "
                                           f"{DEFAULT_SEED} has a pinned one")
            elif (outcome.status == "ok"
                  and pinned_digest(job, code, stdout, out) != pinned[i]):
                outcome = Outcome("wrong", "output differs from the digest pinned "
                                           f"for seed {DEFAULT_SEED}")
        outcomes.append(outcome)
    return outcomes
