"""Finite-quotient certificates separating a word from 1 in a mapping torus.

Given an injective endomorphism phi of a free group and a nontrivial word w,
the search walks the projective matrix-tuple dynamics over growing finite
fields until it finds a periodic tuple h whose word value is nontrivial.
The data (prime, field degree, orbit, period) is enough to rebuild a
homomorphism onto a subgroup of the wreath product PGL2(F_{p^s}) wr C_n
sending the stable letter to the coordinate shift and killing nothing it
should not: the verifier re-derives every condition from scratch, trusting
nothing the search produced.  It bounds its work (`verify_work`, which the
search obeys too) before it parses a word, reads each trace entry once into
a state of logs and checks states with the kernels the search walks.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from . import __version__
from .freegroup import (
    FreeEndo,
    Word,
    WordError,
    endo_is_injective,
    nonscalar_sanity_check,
)
from .gf import DEFAULT_ORDER_CAP, FqField, field_create, is_prime
from .matrep import (
    DEFAULT_ORBIT_BUDGET,
    _det,
    _normalized,
    _tables,
    _word,
    find_periodic_orbit,
    proj_step,
    random_projpoint,
    state_from_rows,
    state_rows,
    word_is_scalar,
)

FORMAT_VERSION = 1
MAX_PERIOD = 4096  # longest orbit the search turns into a certificate
MAX_PRIMES = 6  # admissible primes the search tries before giving up
PRIME_BATCH = 5  # candidate primes whose product is the modulus of one substitution
MAX_VERIFY_WORK = 2**18  # letters the verifier reads: see verify_work

MatData = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
TupleData = tuple[MatData, ...]
_INT_ONLY = frozenset({int})  # type, not isinstance: JSON true and false are bools


class CertifyError(ValueError):
    """Bad search input: identity word or non-injective endomorphism."""


class CertificateFormatError(ValueError):
    """The certificate file is not syntactically well-formed."""


@dataclass(frozen=True)
class CertifyConfig:
    s_max: int = 6
    seeds_per_field: int = 64
    orbit_budget: int = DEFAULT_ORBIT_BUDGET
    seed: int = 0
    allow_noninjective: bool = False
    order_cap: int = DEFAULT_ORDER_CAP

    def __post_init__(self):
        for name in ("s_max", "seeds_per_field", "orbit_budget"):
            value = getattr(self, name)
            if value < 1:
                raise CertifyError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class Certificate:
    """Serialized finite-quotient witness; plain data, no live field objects."""

    rank: int
    images: tuple[str, ...]
    word: str
    p: int
    s: int
    period: int
    trace: tuple[TupleData, ...]
    seed: int
    format_version: int = FORMAT_VERSION
    # head tuple as declared in the file when it differs from trace[0]
    declared_head: TupleData | None = None

    @property
    def h(self) -> TupleData:
        return self.trace[0]

    def to_dict(self) -> dict:
        def mat_lists(t: TupleData) -> list:
            return [[list(row) for row in m] for m in t]

        return {
            "format_version": self.format_version,
            "rank": self.rank,
            "images": list(self.images),
            "word": self.word,
            "p": self.p,
            "s": self.s,
            "period": self.period,
            "tuple": mat_lists(self.h),
            "trace": [mat_lists(t) for t in self.trace],
            "metadata": {"seed": self.seed, "generator": f"quasifix {__version__}"},
        }

    def to_bytes(self) -> bytes:
        return (json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
                + "\n").encode("utf-8")


def _shape_error(msg: str) -> CertificateFormatError:
    return CertificateFormatError(f"malformed certificate: {msg}")


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _shape_error(f"{what} must be an integer")
    return value


def _as_mat(value, what: str) -> MatData:
    """Rows of integer coefficients; their range is checked by `structure`."""
    if not isinstance(value, list) or len(value) != 4:
        raise _shape_error(f"{what} must be a list of 4 entry rows")
    for row in value:
        if not isinstance(row, list) or not row:
            raise _shape_error(f"{what} entries must be nonempty coefficient lists")
        if not _INT_ONLY.issuperset(map(type, row)):
            raise _shape_error(f"{what} coefficient must be an integer")
    return tuple(map(tuple, value))  # type: ignore[return-value]


def certificate_from_dict(data: dict) -> Certificate:
    if not isinstance(data, dict):
        raise _shape_error("top level must be an object")
    for key in ("format_version", "rank", "images", "word", "p", "s",
                "period", "tuple", "trace", "metadata"):
        if key not in data:
            raise _shape_error(f"missing key {key!r}")
    images = data["images"]
    if not isinstance(images, list) or not all(isinstance(t, str) for t in images):
        raise _shape_error("images must be a list of strings")
    if not isinstance(data["word"], str):
        raise _shape_error("word must be a string")
    if not isinstance(data["trace"], list) or not data["trace"]:
        raise _shape_error("trace must be a nonempty list")
    trace = []
    for entry in data["trace"]:
        if not isinstance(entry, list):
            raise _shape_error("trace entries must be lists of matrices")
        trace.append(tuple(_as_mat(m, "trace matrix") for m in entry))
    if not isinstance(data["tuple"], list):
        raise _shape_error("tuple must be a list")
    head = tuple(_as_mat(m, "tuple matrix") for m in data["tuple"])
    metadata = data["metadata"]
    if not isinstance(metadata, dict):
        raise _shape_error("metadata must be an object")
    return Certificate(
        rank=_as_int(data["rank"], "rank"),
        images=tuple(images),
        word=data["word"],
        p=_as_int(data["p"], "p"),
        s=_as_int(data["s"], "s"),
        period=_as_int(data["period"], "period"),
        trace=tuple(trace),
        seed=_as_int(metadata.get("seed", 0), "metadata.seed"),
        format_version=_as_int(data["format_version"], "format_version"),
        declared_head=head if head != trace[0] else None,
    )


def certificate_from_bytes(raw: bytes) -> Certificate:
    try:
        data = json.loads(raw.decode("utf-8"))
    # ValueError covers bad UTF-8, bad JSON and integers past the digit limit
    except (ValueError, RecursionError) as exc:
        raise _shape_error(f"not valid JSON: {exc}") from exc
    return certificate_from_dict(data)


def verify_work(period: int, images, word: str) -> int:
    """The letters the verifier parses and evaluates: period x sum |phi(x_j)| + |w|."""
    return max(period, 1) * sum(map(len, images)) + len(word)


# ---------------------------------------------------------------------------
# prime selection

def admissible_primes(phi: FreeEndo, w: Word):
    """Primes p at which the Sanov matrix of phi^(4k)(w) is non-scalar mod p.

    Sanov's representation is faithful and never hits -Id, so when w survives
    in the mapping torus the integer matrix is non-scalar and only the finitely
    many divisors of its gcd(b, c, a - d) are skipped.  Reduction mod p commutes
    with the ring operations, so one substitution modulo the product of the
    next PRIME_BATCH candidates gives the matrix mod each of them.
    """
    if w.is_identity():
        raise CertifyError("the identity word cannot be separated from itself")
    # every Sanov generator is the identity mod 2, so p = 2 never qualifies
    p = 3
    while True:
        batch = []
        while len(batch) < PRIME_BATCH:
            if is_prime(p):
                batch.append(p)
            p += 1
        mat = nonscalar_sanity_check(phi, w, 4 * phi.rank, math.prod(batch))[1]
        for q in batch:
            a, b, c, d = mat.a % q, mat.b % q, mat.c % q, mat.d % q
            if b or c or a != d:
                yield q


# ---------------------------------------------------------------------------
# search

@dataclass(frozen=True)
class SearchOutcome:
    certificate: Certificate | None
    frontier: tuple[tuple[int, int, int], ...] = ()  # (p, s, seeds tried)
    reason: str = ""
    verdict: CertVerdict | None = None  # the search's own verification of the certificate

    @property
    def found(self) -> bool:
        return self.certificate is not None


def search_certificate(phi: FreeEndo, w: Word,
                       config: CertifyConfig = CertifyConfig()) -> SearchOutcome:
    """Escalating orbit search for a certificate; deterministic per config.

    Field degrees and seeds are explored in a fixed order, so the first
    success is reproducible; exhaustion of the budgets is inconclusive, not
    a refutation.
    """
    if w.is_identity():
        raise CertifyError("the identity word cannot be separated from itself")
    if w.rank != phi.rank:
        raise CertifyError(f"word rank {w.rank} differs from endomorphism rank {phi.rank}")
    images, word = tuple(img.to_text() for img in phi.images), w.to_text()
    if verify_work(1, images, word) > MAX_VERIFY_WORK:
        raise CertifyError(f"images and word exceed the verifier's work cap {MAX_VERIFY_WORK}")
    if not endo_is_injective(phi):
        if not config.allow_noninjective:
            raise CertifyError("endomorphism is not injective; pass the override "
                               "to search anyway")
        # phi is injective on phi^k(F_k): the rank of phi^j(F_k) stops falling by
        # j = k and free groups are Hopfian; so phi^(4k)(w) = 1 iff phi^k(w) = 1
        if phi.apply_power(w, phi.rank).is_identity():
            raise CertifyError("phi^k(w) = 1: the word dies in the mapping torus")
    k = phi.rank
    frontier: list[tuple[int, int, int]] = []
    primes = admissible_primes(phi, w)
    for _ in range(MAX_PRIMES):
        p = next(primes)
        for s in range(1, config.s_max + 1):
            if p**s > config.order_cap:
                break
            field = field_create(p, s, config.order_cap)
            step = proj_step(phi, field)
            frontier.append((p, s, config.seeds_per_field))
            for seed_index in range(config.seeds_per_field):
                rng = random.Random(f"{config.seed}:{p}:{s}:{seed_index}")
                start = random_projpoint(field, k, rng)
                result = find_periodic_orbit(phi, start, config.orbit_budget)
                if (not result.found or result.period > MAX_PERIOD
                        or verify_work(result.period, images, word) > MAX_VERIFY_WORK):
                    continue
                states = [result.point.tuple._key]
                for _ in range(result.period - 1):
                    states.append(step(states[-1]))
                for rotation in range(result.period):
                    if word_is_scalar(w, field, states[rotation]):
                        continue
                    rotated = states[rotation:] + states[:rotation]
                    cert = Certificate(
                        rank=k,
                        images=images,
                        word=word,
                        p=p,
                        s=s,
                        period=result.period,
                        trace=tuple(state_rows(field, state) for state in rotated),
                        seed=config.seed,
                    )
                    verdict = verify_certificate(cert, order_cap=config.order_cap)
                    if not verdict.passed:
                        raise RuntimeError(
                            f"internal error: fresh certificate failed verification: "
                            f"{verdict.failures}")
                    return SearchOutcome(cert, tuple(frontier), verdict=verdict)
    return SearchOutcome(None, tuple(frontier), reason="budget exhausted")


# ---------------------------------------------------------------------------
# wreath-product quotient

@dataclass(frozen=True)
class WreathData:
    """Relation checks of the wreath-product quotient."""

    period: int
    relations_hold: tuple[bool, ...]  # per generator, over every step
    w_first_coordinate_nontrivial: bool
    steps_close: tuple[bool, ...]  # per step i: trace[i] steps to trace[i + 1]


def build_wreath(phi: FreeEndo, w: Word, field: FqField, states: list[tuple]) -> WreathData:
    """Check the quotient map given by an orbit trace of states over field.

    The assignment (stable letter -> shift, generator j -> its orbit row)
    extends to a homomorphism into PGL2(F) wr C_n exactly when conjugating
    each row by the shift equals the row of its image word.  Conjugation by
    the shift rotates coordinates one place and a shift-0 word is evaluated
    coordinatewise, so relation j reads states[i + 1][j] = pi_{phi(x_j)}(states[i])
    up to scalars at every i: the orbit step, one generator at a time.  Each
    image word is evaluated once per state, normalized and compared with the
    next state's matrix, per generator and per step; w is evaluated at
    states[0].  Every trace matrix must be invertible and scalar-canonical.
    """
    zero, zech, neg = _tables(field)  # zero is the log of 0
    period = len(states)
    images = [image.letters for image in phi.images]
    holds = [[_normalized(_word(letters, state, zero, zech, neg), zero)
              == states[(i + 1) % period][j]
              for j, letters in enumerate(images)]
             for i, state in enumerate(states)]
    return WreathData(period, tuple(all(col) for col in zip(*holds)),
                      not word_is_scalar(w, field, states[0]),
                      tuple(all(step) for step in holds))


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str


@dataclass(frozen=True)
class CertVerdict:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    @property
    def failures(self) -> list[str]:
        return [c.name for c in self.checks if c.status == "fail"]

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": [{"name": c.name, "status": c.status, "detail": c.detail}
                           for c in self.checks]}


CHECK_NAMES = ("structure", "tuple_in_group", "condition_i", "condition_ii",
               "condition_iii", "wreath_relations")


def _record(checks: list[CheckResult], problems: list[str], passed: str) -> None:
    """Append the next check of CHECK_NAMES: failed with its problems, else passed."""
    status, detail = ("fail", "; ".join(problems)) if problems else ("pass", passed)
    checks.append(CheckResult(CHECK_NAMES[len(checks)], status, detail))


def _skip_rest(checks: list[CheckResult], reason: str) -> CertVerdict:
    """The verdict with every check not yet recorded marked skipped."""
    checks.extend(CheckResult(name, "skipped", reason) for name in CHECK_NAMES[len(checks):])
    return CertVerdict(tuple(checks))


def _order_within_cap(p: int, s: int, cap: int) -> bool:
    """Whether p^s <= cap for p >= 2, in at most log2(cap) + 1 multiplications."""
    order = 1
    for _ in range(s):
        order *= p
        if order > cap:
            return False
    return True


def _structure_problems(cert: Certificate, order_cap: int
                        ) -> tuple[list[str], tuple[FreeEndo, Word] | None]:
    """Problems found, and the parsed endomorphism and word when both parse."""
    problems = []
    parsed = None
    if cert.format_version != FORMAT_VERSION:
        problems.append(f"unsupported format_version {cert.format_version}")
    if cert.rank < 1:
        problems.append("rank must be >= 1")
    if len(cert.images) != cert.rank:
        problems.append(f"{len(cert.images)} images for rank {cert.rank}")
    # p and s are untrusted: bound them before trial division or p**s runs
    if cert.p >= 2 and not _order_within_cap(cert.p, max(cert.s, 1), order_cap):
        problems.append(f"field order {cert.p}^{cert.s} exceeds cap {order_cap}")
    elif not is_prime(cert.p):
        problems.append(f"p = {cert.p} is not prime")
    if cert.s < 1:
        problems.append(f"field degree s = {cert.s} must be >= 1")
    if cert.period < 1:
        problems.append(f"period {cert.period} must be >= 1")
    if len(cert.trace) != cert.period:
        problems.append(f"trace has {len(cert.trace)} entries but period is {cert.period}")
    if cert.declared_head is not None:
        problems.append("declared tuple differs from the first trace entry")
    # bounded before the texts are parsed: parsing and evaluation are linear in them
    work = verify_work(cert.period, cert.images, cert.word)
    if work > MAX_VERIFY_WORK:
        problems.append(f"period x |images| + |word| = {work} exceeds work cap {MAX_VERIFY_WORK}")
    else:
        try:
            phi = FreeEndo.parse(cert.images, cert.rank)
            w = Word.parse(cert.word, cert.rank)
            parsed = (phi, w)
            if w.is_identity():
                problems.append("certified word reduces to the identity")
            for text, image in zip(cert.images, phi.images):
                if image.to_text() != text:
                    problems.append(f"image {text!r} is not freely reduced")
            if w.to_text() != cert.word.strip():
                problems.append(f"word {cert.word!r} is not freely reduced")
        except WordError as exc:
            problems.append(f"word syntax: {exc}")
    s, p = cert.s, cert.p
    for entry in cert.trace:  # the one range check of rows; s = 0 leaves them empty
        if len(entry) != cert.rank:
            problems.append("trace entry arity differs from rank")
            break
        if any(len(mat) != 4 for mat in entry):  # parsed files have 4; in-code ones may not
            problems.append("trace matrix does not have 4 entry rows")
            break
        if any(len(row) != s or s and (min(row) < 0 or max(row) >= p)
               for mat in entry for row in mat):
            problems.append("matrix coefficients out of range for the field")
            break
    return problems, parsed


def verify_certificate(cert: Certificate,
                       order_cap: int = DEFAULT_ORDER_CAP) -> CertVerdict:
    """Independent re-derivation of every certificate condition.

    Rebuilds the field from (p, s) alone, re-walks the orbit once through
    `build_wreath`, and reports one named result per condition; nothing
    produced by the search is trusted.
    """
    checks: list[CheckResult] = []

    problems, parsed = _structure_problems(cert, order_cap)
    _record(checks, problems, "fields, words and shapes are coherent")
    if problems:
        return _skip_rest(checks, "structure check failed")

    phi, w = parsed
    field = field_create(cert.p, cert.s, order_cap)
    states = [state_from_rows(field, entry) for entry in cert.trace]

    zero, zech, neg = _tables(field)  # zero is the log of 0
    membership_problems = []
    for i, state in enumerate(states):
        for j, m in enumerate(state):
            if _det(m, zero, zech, neg) == zero:
                membership_problems.append(f"trace[{i}] matrix {j} is singular")
            elif _normalized(m, zero) != m:
                membership_problems.append(f"trace[{i}] matrix {j} is not scalar-canonical")
    _record(checks, membership_problems, "all matrices invertible and scalar-canonical")
    _record(checks, [], "free group: no relations, holds vacuously")
    if membership_problems:
        return _skip_rest(checks, "tuple is not in the group")

    n = cert.period
    wreath = build_wreath(phi, w, field, states)
    orbit_problems = [f"step from trace[{i}] does not give trace[{(i + 1) % n}]"
                      for i, ok in enumerate(wreath.steps_close) if not ok]
    if len(set(states)) != n:
        orbit_problems.append("period is not minimal: trace entries repeat")
    _record(checks, orbit_problems, f"orbit closes with minimal period {n}")

    nontrivial = wreath.w_first_coordinate_nontrivial
    _record(checks, [] if nontrivial else ["word value at the base tuple is scalar"],
            "word value at the base tuple is non-scalar")

    bad = [f"generator {j + 1}" for j, ok in enumerate(wreath.relations_hold) if not ok]
    wreath_problems = ["relations fail for " + ", ".join(bad)] if bad else []
    if not nontrivial:
        wreath_problems.append("word image has trivial first coordinate")
    _record(checks, wreath_problems,
            "shift conjugation matches image rows; word image is nontrivial")
    return CertVerdict(tuple(checks))
