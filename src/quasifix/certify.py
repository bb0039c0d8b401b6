"""Finite-quotient certificates separating a word from 1 in a mapping torus.

Given an injective endomorphism phi of a free group and a nontrivial word w,
the search walks the projective matrix-tuple dynamics over growing finite
fields until it finds a periodic tuple h whose word value is nontrivial.
Each walk starts from a random tuple that depends only on (seed, p, s,
index, rank), so `_walk_start` draws it once per process and keeps it.
The data (prime, field degree, orbit, period) is enough to rebuild a
homomorphism onto a subgroup of the wreath product PGL2(F_{p^s}) wr C_n
sending the stable letter to the coordinate shift and killing nothing it
should not: the verifier re-derives every condition from scratch, trusting
nothing the search produced.  Both work within one field-order cap,
`gf.DEFAULT_ORDER_CAP` (2^20): the search tries no field past it, the
verifier refuses one, and the verifier's byte cap, MAX_CERTIFICATE_BYTES, is
derived from it.  The verifier bounds its work (`verify_work`, which the
search obeys too) before it parses a word.  The byte route reads the trace
and the declared tuple off the bytes: `json.loads` reads the rest of the
text, the two arrays cut out, and whole-buffer passes check each array
against the skeleton that (rank, s) implies and read its coefficients into
one flat buffer, with no Python step per coefficient.  `verify_bytes` checks
that buffer; only `certificate_from_bytes` nests it in tuples.  Any text that
route cannot read (a sign, a fraction, an exponent, a leading zero, a shape
that does not match, a last key spelled with an escape) goes to `json.loads`
and `certificate_from_dict`, one walk in file order with one Python step per
row; both give the same certificate or the same first problem.  The structure
check range-checks every coefficient and folds the rows into element indices
on big-integer lanes (only range-checking past the cap), before any field is
built.  It checks the log states with the kernels the search walks.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import OrderedDict
from itertools import chain, compress, count
from typing import NamedTuple

from . import __version__
from .freegroup import (
    FreeEndo,
    Word,
    WordError,
    endo_is_injective,
    nonscalar_sanity_check,
)
from .gf import DEFAULT_ORDER_CAP, FqField, field_create, is_prime, power_within
from .matrep import (
    DEFAULT_ORBIT_BUDGET,
    _det,
    _normalized,
    _tables,
    proj_step,
    random_state,
    state_orbit,
    state_rows,
    trace_indices,
    trace_states,
    word_is_scalar,
)

FORMAT_VERSION = 1
MAX_PRIMES = 6  # admissible primes the search tries before giving up
PRIME_BATCH = 5  # candidate primes whose product is the modulus of one substitution
MAX_VERIFY_WORK = 2**18  # letters the verifier reads: see verify_work
# The verifier's byte cap: half again the canonical trace of the most
# coefficients that MAX_VERIFY_WORK admits.  The widest rows within the
# field-order cap are those of F_{2^s}, s = 20: s one-digit coefficients,
# 2s + 1 bytes.  A field of p^t elements with p > 2 has rows of t(d + 1) + 1
# bytes, d the digits of p - 1, and t(d + 1) <= 2s.  `verify_work` counts each
# image as a letter at least, so period x rank <= MAX_VERIFY_WORK - 1 when the
# word has a letter, and the trace of rank 1, image "a", word "a" and period
# MAX_VERIFY_WORK - 1 holds the most matrices (an empty word, which structure
# refuses, adds one), at 8s + 12 bytes an entry (`[[r,r,r,r]],`): 45,088,596
# bytes.  A shape of higher rank holds at most 25 more matrices in its trace
# and declared tuple together, and the largest, a period-1 certificate of rank
# 131,071 (images `x1`), is 0.3 % larger.  The other half admits those and
# json.dumps's default separators, a space after each of the 80 commas of an
# entry: 67,632,894 bytes.
MAX_CERTIFICATE_BYTES = (MAX_VERIFY_WORK - 1) * (8 * 20 + 12) * 3 // 2
MAX_KEPT_START_MATRICES = 2**14  # matrices of the walk starts kept: see _walk_start

MatData = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
TupleData = tuple[MatData, ...]
_INT_ONLY = frozenset({int})  # type, not isinstance: JSON true and false are bools


class CertifyError(ValueError):
    """Bad search input: identity word or non-injective endomorphism."""


class CertificateFormatError(ValueError):
    """The certificate file is not syntactically well-formed."""


class _CertifyFields(NamedTuple):
    s_max: int = 6
    seeds_per_field: int = 64
    orbit_budget: int = DEFAULT_ORBIT_BUDGET
    seed: int = 0
    allow_noninjective: bool = False


class CertifyConfig(_CertifyFields):
    """Search budgets; every way of building one checks the three counts."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("s_max", "seeds_per_field", "orbit_budget"):
            value = getattr(self, name)
            if value < 1:
                raise CertifyError(f"{name} must be >= 1, got {value}")
        return self

    @classmethod
    def _make(cls, iterable) -> CertifyConfig:  # _replace builds through _make
        return cls(*iterable)


class Certificate(NamedTuple):
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
        """The certificate's JSON object; the nested tuples stay as they are,
        since `json.dumps` writes a tuple as an array."""
        return {
            "format_version": self.format_version,
            "rank": self.rank,
            "images": self.images,
            "word": self.word,
            "p": self.p,
            "s": self.s,
            "period": self.period,
            "tuple": self.h,
            "trace": self.trace,
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


def _first(flags) -> int | None:
    """The index of the first true flag, or None."""
    return next(compress(count(), flags), None)


def _matrices(mats: list, what: str) -> TupleData:
    """A list of matrices, each 4 nonempty rows of integer coefficients, as
    tuples of coefficient tuples; their range is checked by `structure`.

    Raises the first problem in file order, as each matrix and row is checked
    before its parts: one Python step per row, whose coefficients one C-level
    pass checks.
    """
    for mat in mats:
        if not isinstance(mat, list) or len(mat) != 4:
            raise _shape_error(f"{what} must be a list of 4 entry rows")
        for row in mat:
            if not isinstance(row, list) or not row:
                raise _shape_error(f"{what} entries must be nonempty coefficient lists")
            if not _INT_ONLY.issuperset(map(type, row)):
                raise _shape_error(f"{what} coefficient must be an integer")
    return tuple(tuple(map(tuple, mat)) for mat in mats)


def _check_header(data) -> None:
    """Raise the first problem of the top-level object found before its trace is read."""
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


def _certificate(data: dict, trace: tuple, declared_head) -> Certificate:
    """The certificate of a checked header (`_check_header`) and its read trace
    and differing declared tuple; raises the first problem found after the trace."""
    metadata = data["metadata"]
    if not isinstance(metadata, dict):
        raise _shape_error("metadata must be an object")
    return Certificate(
        rank=_as_int(data["rank"], "rank"),
        images=tuple(data["images"]),
        word=data["word"],
        p=_as_int(data["p"], "p"),
        s=_as_int(data["s"], "s"),
        period=_as_int(data["period"], "period"),
        trace=trace,
        seed=_as_int(metadata.get("seed", 0), "metadata.seed"),
        format_version=_as_int(data["format_version"], "format_version"),
        declared_head=declared_head,
    )


def certificate_from_dict(data: dict) -> Certificate:
    _check_header(data)
    entries = data["trace"]
    if not isinstance(entries, list) or not entries:
        raise _shape_error("trace must be a nonempty list")
    trace = []
    for entry in entries:
        if not isinstance(entry, list):
            raise _shape_error("trace entries must be lists of matrices")
        trace.append(_matrices(entry, "trace matrix"))
    if not isinstance(data["tuple"], list):
        raise _shape_error("tuple must be a list")
    head = _matrices(data["tuple"], "tuple matrix")
    return _certificate(data, tuple(trace), head if head != trace[0] else None)


# The byte route of `certificate_from_bytes`: the "trace" and "tuple" values
# are read off the bytes, and `json.loads` reads the rest of the text
_SPANS = ("trace", "tuple")
_WHITESPACE = b" \t\n\r"  # JSON's four; any other byte is not skipped
# a digit reads as d and a separator as itself; every other byte as ?, which no
# skeleton holds
_SHAPE = bytes(100 if 48 <= c <= 57 else c if c in b"[]," else 63 for c in range(256))
_DIGIT_VALUE = bytes.maketrans(b"0123456789", bytes(range(10)))
_TO_SPACE = bytes.maketrans(b"[],\t\n\r", b"      ")
_LEADING_ZERO = re.compile(rb" 0[0-9]")
_COLON = re.compile(rb"[ \t\n\r]*:[ \t\n\r]*\[")  # a key's colon and the "[" of its value


def _span(raw: bytes, key: str) -> tuple[int, int] | None:
    """The (start, end) byte span of the value of the last `"key"` in raw, which
    `json.loads` keeps: from the "[" after its colon to the last "]" before the
    next quote, which ends a top-level array, as only a comma, whitespace and
    the object's "}" can follow it; None unless ":" and "[" follow the key."""
    quoted = b'"%s"' % key.encode()
    at = raw.rfind(quoted)
    colon = _COLON.match(raw, at + len(quoted)) if at >= 0 else None
    if colon is None:
        return None
    stop = raw.find(b'"', colon.end())
    end = raw.rfind(b"]", colon.end(), len(raw) if stop < 0 else stop) + 1
    return (colon.end() - 1, end) if end else None


def _skeleton(row: bytes, rank: int, length: int, listed: bool) -> tuple[int, bytes] | None:
    """The JSON array of rank matrices, each of four rows `row`, or, listed, the
    nonempty array of such arrays that is `length` bytes long, with the number
    of arrays; None when no such array is `length` bytes long."""
    size = rank * (4 * len(row) + 6) + 1
    n, rest = divmod(length - 1, size + 1) if listed else (1, length - size)
    if rest or n < 1:
        return None
    entry = b"[" + b",".join([b"[" + b",".join([row] * 4) + b"]"] * rank) + b"]"
    return n, b"[" + b",".join([entry] * n) + b"]" if listed else entry


def _read_matrices(span: bytes, rank: int, s: int, listed: bool) -> bytes | list[int] | None:
    """The coefficients of a JSON array of rank matrices of s-coefficient rows,
    or, listed, of a nonempty array of such arrays, as one flat buffer; None
    unless the span is exactly that, every coefficient a nonnegative JSON
    integer.

    Whole-buffer passes (Langdale and Lemire, VLDB J. 28, 2019): deleting
    whitespace and reading each digit as d leaves the span's shape.  When it
    is the skeleton that (rank, s) implies with one d in each coefficient
    slot, the digits are the coefficients.  Otherwise the separators must be
    that skeleton, with one run of digits in each slot and none elsewhere, no
    whitespace inside a run and no leading zero.
    """
    if 4 * rank * s > len(span):  # a coefficient takes a byte at least
        return None
    shape = span.translate(_SHAPE, _WHITESPACE)
    one_digit = _skeleton(b"[" + b"d," * (s - 1) + b"d]", rank, len(shape), listed)
    if one_digit is not None and shape == one_digit[1]:
        return span.translate(_DIGIT_VALUE, b"[]," + _WHITESPACE)
    skeleton = shape.translate(None, b"d")
    expected = _skeleton(b"[" + b"," * (s - 1) + b"]", rank, len(skeleton), listed)
    if expected is None or skeleton != expected[1]:
        return None
    slots = expected[0] * rank * 4 * s
    # a run that starts after "[" or "," and ends before "," or "]" is in a
    # coefficient slot, and each slot holds one run at most
    if b"]d" in shape or b"d[" in shape or shape.count(b"[d") + shape.count(b",d") != slots:
        return None
    spaced = span.translate(_TO_SPACE)
    tokens = spaced.split()  # more than the runs when whitespace splits one
    if len(tokens) != slots or _LEADING_ZERO.search(spaced):
        return None
    try:
        return list(map(int, tokens))
    except ValueError:  # past the digit limit
        return None


def _flat_certificate(raw: bytes) -> tuple[Certificate, int, bytes | list[int]] | None:
    """The certificate, or the format error, that `certificate_from_dict` gives
    for the object `json.loads` reads from raw, by the byte route: its header
    with no trace (a differing declared tuple as its flat buffer), the entry
    count and the trace's flat buffer; None when the route cannot read raw.

    The one route test: `json.loads` reads raw with each span replaced by a
    NaN, each read as a new object.  When those are the two keys' top-level
    values and raw holds no other constant, raw is that object with the two
    arrays that `_read_matrices` reads, each a JSON value, in their place.
    """
    spans = [_span(raw, key) for key in _SPANS]
    if None in spans:
        return None
    # each span ends before the next quote, so before the other key: they are disjoint
    (a, b), (c, d) = sorted(spans)
    marks = []
    try:
        data = json.loads((raw[:a] + b"NaN" + raw[b:c] + b"NaN" + raw[d:]).decode("utf-8"),
                          parse_constant=lambda _: marks.append(object()) or marks[-1])
    # ValueError covers bad UTF-8, bad JSON and integers past the digit limit
    except (ValueError, RecursionError):
        return None
    if not isinstance(data, dict) or marks != [data.get(k) for _, k in sorted(zip(spans, _SPANS))]:
        return None
    rank, s = data.get("rank"), data.get("s")
    if type(rank) is not int or type(s) is not int or rank < 1 or s < 1:
        return None
    read = [_read_matrices(raw[start:end], rank, s, key == "trace")
            for key, (start, end) in zip(_SPANS, spans)]
    if None in read:
        return None
    values, head = read
    _check_header(data)
    # either buffer may be bytes (one-digit coefficients) or a list
    cert = _certificate(data, (), head if list(head) != list(values[:len(head)]) else None)
    return cert, len(values) // len(head), values


def _loaded_certificate(raw: bytes) -> Certificate:
    """The certificate `certificate_from_dict` reads from `json.loads` of raw."""
    try:
        data = json.loads(raw.decode("utf-8"))
    # ValueError covers bad UTF-8, bad JSON and integers past the digit limit
    except (ValueError, RecursionError) as exc:
        raise _shape_error(f"not valid JSON: {exc}") from exc
    return certificate_from_dict(data)


def certificate_from_bytes(raw: bytes) -> Certificate:
    """The certificate in raw, exactly as `certificate_from_dict` reads the
    JSON object that `json.loads` gives, or the same `CertificateFormatError`.

    The byte route reads the trace and the declared tuple when the last
    literal `"trace"` and `"tuple"` keys are the top-level ones, each an
    array of nonnegative JSON integers of the shape rank and s imply, and
    `json.loads` every other top-level value, and zips its flat buffers into
    rows; any other text goes through `json.loads` and `certificate_from_dict`.
    """
    flat = _flat_certificate(raw)
    if flat is None:
        return _loaded_certificate(raw)
    cert, _, values = flat
    mats, head = (zip(*[zip(*[iter(b)] * cert.s)] * 4) for b in (values, cert.declared_head or ()))
    return cert._replace(trace=tuple(zip(*[mats] * cert.rank)), declared_head=tuple(head) or None)


def verify_work(period: int, images, word: str) -> int:
    """The letters the verifier parses and evaluates: period x sum |phi(x_j)| +
    |w|, an empty image counted as one letter, since it still has a trace
    matrix per step; so period x rank is at most the work of any certificate."""
    return max(period, 1) * (sum(map(len, images)) + images.count("")) + len(word)


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

# walk starts drawn by _walk_start, oldest first, keyed by (p, s, k, seed,
# index), and the number of matrices they hold
_STARTS: OrderedDict[tuple[int, int, int, int, int], tuple] = OrderedDict()
_start_matrices = 0


def _walk_start(field: FqField, k: int, seed: int, index: int) -> tuple:
    """The start of the search's walk `index` at `seed` over field: the rank-k
    `random_state` drawn from `random.Random(f"{seed}:{p}:{s}:{index}")`.

    The draw reads only p, s and the field's tables, which `field_create`
    derives from (p, s), and a start is a tuple that no walk changes; so each
    start is drawn once per process and kept.  The kept starts hold at most
    MAX_KEPT_START_MATRICES matrices, the oldest dropped first; a start of
    more is returned but not kept.
    """
    global _start_matrices
    p, s = field.p, field.m
    key = (p, s, k, seed, index)
    start = _STARTS.get(key)
    if start is None:
        start = random_state(field, k, random.Random(f"{seed}:{p}:{s}:{index}"))
        if k <= MAX_KEPT_START_MATRICES:
            while _start_matrices + k > MAX_KEPT_START_MATRICES:
                _start_matrices -= _STARTS.popitem(last=False)[0][2]
            _STARTS[key] = start
            _start_matrices += k
    return start


class SearchOutcome(NamedTuple):
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
    a refutation.  A not-found reason counts the walks each cause ended.
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
    causes = ("walks out of budget", "walks past the period cap",
              "cycles over the verify work cap", "cycles with a scalar word at every rotation")
    failed = [0] * len(causes)  # walks ended by each cause
    primes = admissible_primes(phi, w)
    for _ in range(MAX_PRIMES):
        p = next(primes)
        for s in range(1, config.s_max + 1):
            if not power_within(p, s, DEFAULT_ORDER_CAP):
                break
            field = field_create(p, s)
            step = proj_step(phi, field)
            frontier.append((p, s, config.seeds_per_field))
            for seed_index in range(config.seeds_per_field):
                states: list[tuple] = []
                result = state_orbit(step, _walk_start(field, k, config.seed, seed_index),
                                     config.orbit_budget, states)
                if not result.found or verify_work(result.period, images, word) > MAX_VERIFY_WORK:
                    failed[2 if result.found else 1 if result.reason == "period" else 0] += 1
                    continue
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
                    verdict = verify_certificate(cert)
                    if not verdict.passed:
                        raise RuntimeError(
                            f"internal error: fresh certificate failed verification: "
                            f"{verdict.failures}")
                    return SearchOutcome(cert, tuple(frontier), verdict=verdict)
                failed[3] += 1
    reason = "; ".join(f"{cause}: {n}" for cause, n in zip(causes, failed) if n)
    return SearchOutcome(None, tuple(frontier), reason=reason or "no field within the order cap")


# ---------------------------------------------------------------------------
# wreath-product quotient

class WreathData(NamedTuple):
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
    state is stepped once by the search's `proj_step` and compared with the
    next state, per generator and per step; w is evaluated at states[0].
    Every trace matrix must be invertible and scalar-canonical.
    """
    step, period = proj_step(phi, field), len(states)
    holds = [[x == y for x, y in zip(step(state), states[(i + 1) % period])]
             for i, state in enumerate(states)]
    return WreathData(period, tuple(all(col) for col in zip(*holds)),
                      not word_is_scalar(w, field, states[0]),
                      tuple(all(step) for step in holds))


# ---------------------------------------------------------------------------
# verification

class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str


class CertVerdict(NamedTuple):
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


def _flat_trace(cert: Certificate) -> tuple[int, list | None, str | None]:
    """The entry count of a nested trace, its coefficients laid end to end (None
    when a row's length is not s) and its first shape problem: whole-trace
    passes, each cutting the trace at its first bad entry, so the last problem
    found is the first entry's, in the order arity, row count, row length."""
    rank, trace, problem = cert.rank, cert.trace, None
    end = _first(map(rank.__ne__, map(len, trace)))
    if end is not None:
        problem, trace = "trace entry arity differs from rank", trace[:end]
    mats = list(chain.from_iterable(trace))
    end = _first(map((4).__ne__, map(len, mats)))  # parsed files have 4; in-code ones may not
    if end is not None:  # the entries before its own hold rank >= 1 matrices each
        problem, mats = "trace matrix does not have 4 entry rows", mats[:end - end % rank]
    rows = list(chain.from_iterable(mats))
    coeffs = list(chain.from_iterable(rows)) if set(map(len, rows)) <= {cert.s} else None
    return len(cert.trace), coeffs, problem


def _structure_problems(cert: Certificate, entries: int, coeffs, problem: str | None
                        ) -> tuple[list[str], tuple[FreeEndo, Word] | None, list[tuple]]:
    """Problems found, the parsed endomorphism and word when both parse, and
    the element indices of the trace, given flat (`_flat_trace`), when it checks."""
    problems = []
    parsed = None
    if cert.format_version != FORMAT_VERSION:
        problems.append(f"unsupported format_version {cert.format_version}")
    if cert.rank < 1:
        problems.append("rank must be >= 1")
    if len(cert.images) != cert.rank:
        problems.append(f"{len(cert.images)} images for rank {cert.rank}")
    # p and s are untrusted: bound them before the primality test or p**s runs
    bounded = cert.p < 2 or power_within(cert.p, max(cert.s, 1), DEFAULT_ORDER_CAP)
    if not bounded:
        problems.append(f"field order {cert.p}^{cert.s} exceeds cap {DEFAULT_ORDER_CAP}")
    elif not is_prime(cert.p):
        problems.append(f"p = {cert.p} is not prime")
    if cert.s < 1:
        problems.append(f"field degree s = {cert.s} must be >= 1")
    if cert.period < 1:
        problems.append(f"period {cert.period} must be >= 1")
    if entries != cert.period:
        problems.append(f"trace has {entries} entries but period is {cert.period}")
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
            texts = [("image", text, image) for text, image in zip(cert.images, phi.images)]
            for what, text, word in texts + [("word", cert.word, w)]:
                if (canonical := word.to_text()) != text:
                    problems.append(f"{what} {text!r} is not its canonical reduced text "
                                    f"{canonical!r}")
        except WordError as exc:
            problems.append(f"word syntax: {exc}")
    s, p, indices = cert.s, cert.p, None  # the range problem comes after the shape's
    if coeffs is None:
        bad = True
    elif bounded and p >= 2 and s >= 1:  # p**s is within the cap, so the indices stay small
        indices = trace_indices(coeffs, p, s)
        bad = indices is None
    else:  # folding would build ints of s * log2(p) bits: only range-check
        bad = bool(coeffs) and (min(coeffs) < 0 or max(coeffs) >= p)
    if bad:
        problem = "matrix coefficients out of range for the field"
    if problem:
        problems.append(problem)
    return problems, parsed, indices


def verify_certificate(cert: Certificate) -> CertVerdict:
    """Independent re-derivation of every certificate condition.

    Rebuilds the field from (p, s) alone, re-walks the orbit once through
    `build_wreath`, and reports one named result per condition; nothing
    produced by the search is trusted.
    """
    return _verify(cert, *_flat_trace(cert))


def verify_bytes(raw: bytes) -> CertVerdict:
    """`verify_certificate(certificate_from_bytes(raw))`, or the same format
    error; a trace the byte route reads is checked as its flat buffer."""
    flat = _flat_certificate(raw)
    return _verify(*flat) if flat else verify_certificate(_loaded_certificate(raw))


def _verify(cert: Certificate, entries: int, coeffs, problem: str | None = None) -> CertVerdict:
    """The verdict on cert, its trace given as `_structure_problems` takes it."""
    checks: list[CheckResult] = []

    problems, parsed, indices = _structure_problems(cert, entries, coeffs, problem)
    _record(checks, problems, "fields, words and shapes are coherent")
    if problems:
        return _skip_rest(checks, "structure check failed")

    phi, w = parsed
    field = field_create(cert.p, cert.s)
    states = trace_states(field, indices, cert.rank)

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
