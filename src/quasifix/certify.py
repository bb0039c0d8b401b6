"""Finite-quotient certificates separating a word from 1 in a mapping torus.

Given an injective endomorphism phi of a free group and a nontrivial word w,
the search walks the projective matrix-tuple dynamics over growing finite
fields until it finds a periodic tuple h whose word value is nontrivial.
The data (prime, field degree, orbit, period) is enough to rebuild a
homomorphism onto a subgroup of the wreath product PGL2(F_{p^s}) wr C_n
sending the stable letter to the coordinate shift and killing nothing it
should not: the verifier re-derives every condition from scratch, trusting
nothing the search produced.  It bounds its work (`verify_work`, which the
search obeys too) before it parses a word.  `certificate_from_bytes` reads
the trace and the declared tuple off the file's bytes: json's own scanners
read every other top-level key, and whole-buffer passes check each of the
two arrays against the skeleton that (rank, s) implies and read out its
coefficients, with no Python step per coefficient.  Any text that route
cannot read (not ASCII, a float, a sign, a leading zero, a shape that does
not match) goes to `json.loads` and `certificate_from_dict`, which checks
one level of the nesting per pass; both give the same certificate or the
same first problem.  The structure check range-checks every coefficient
and folds the rows into element indices on big-integer lanes (it only
range-checks them when p^s is over the cap), before any field is built.
It checks the log states with the kernels the search walks.
"""

from __future__ import annotations

import json
import math
import operator
import random
import re
from itertools import chain, compress, count, islice, repeat
from json.scanner import make_scanner
from typing import NamedTuple

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
    order_cap: int = DEFAULT_ORDER_CAP


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


def _first_bad(items: list, size_ok=None) -> int:
    """The index of the first item that is not a list or whose length size_ok
    refuses, else len(items); each index is sought only once all() fails."""
    end = len(items)
    if not all(map(isinstance, items, repeat(list))):
        end = _first(map(operator.not_, map(isinstance, items, repeat(list))))
    if size_ok is not None and not all(map(size_ok, map(len, islice(items, end)))):
        end = _first(map(operator.not_, map(size_ok, map(len, items))))
    return end


def _matrix_rows(mats: list, what: str, problem: str | None = None) -> list:
    """The rows of a list of matrices, each 4 rows of integer coefficients;
    their range is checked by `structure`.

    One pass per level of the nesting.  A pass that finds a bad item cuts its
    list there and the passes below read what is left, so the problem found
    deepest is the first in file order, as an item is checked before its
    parts.  `problem` is one found above the matrices.
    """
    end = _first_bad(mats, (4).__eq__)
    if end < len(mats):
        problem, mats = f"{what} must be a list of 4 entry rows", mats[:end]
    rows = list(chain.from_iterable(mats))
    end = _first_bad(rows, bool)
    if end < len(rows):
        problem, rows = f"{what} entries must be nonempty coefficient lists", rows[:end]
    if not _INT_ONLY.issuperset(map(type, chain.from_iterable(rows))):
        problem = f"{what} coefficient must be an integer"
    if problem:
        raise _shape_error(problem)
    return rows


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


def _certificate(data: dict, trace: tuple, head: TupleData) -> Certificate:
    """The certificate of a checked header (`_check_header`) and its read trace
    and declared tuple; raises the first problem found after the trace."""
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
        declared_head=head if head != trace[0] else None,
    )


def certificate_from_dict(data: dict) -> Certificate:
    _check_header(data)
    entries = data["trace"]
    if not isinstance(entries, list) or not entries:
        raise _shape_error("trace must be a nonempty list")
    end = _first_bad(entries)
    rows = _matrix_rows(list(chain.from_iterable(entries[:end])), "trace matrix",
                        "trace entries must be lists of matrices" if end < len(entries) else None)
    mats = zip(*[map(tuple, rows)] * 4)
    # each entry takes its own number of matrices off the one iterator
    trace = tuple(map(tuple, map(islice, repeat(mats), map(len, entries))))
    if not isinstance(data["tuple"], list):
        raise _shape_error("tuple must be a list")
    head = tuple(zip(*[map(tuple, _matrix_rows(data["tuple"], "tuple matrix"))] * 4))
    return _certificate(data, trace, head)


# The byte route of `certificate_from_bytes`.  On ASCII text a str offset is a
# byte offset, so json's own scanners read the top-level keys off the text
# while the "trace" and "tuple" values are read off the bytes.
_SPANS = ("trace", "tuple")
_WHITESPACE = b" \t\n\r"  # JSON's four; any other byte is not skipped
# a digit reads as d and a separator as itself; every other byte as ?, which no
# skeleton holds
_SHAPE = bytes(100 if 48 <= c <= 57 else c if c in b"[]," else 63 for c in range(256))
_DIGIT_VALUE = bytes.maketrans(b"0123456789", bytes(range(10)))
_TO_SPACE = bytes.maketrans(b"[],\t\n\r", b"      ")
_LEADING_ZERO = re.compile(rb" 0[0-9]")
# JSON's own whitespace, then "{"; a key with no escape and no control
# character, and its colon; a comma or the closing "}"
_OPEN = re.compile(r"[ \t\n\r]*\{")
_KEY = re.compile(r'[ \t\n\r]*"([^"\\\x00-\x1f]*)"[ \t\n\r]*:[ \t\n\r]*')
_NEXT = re.compile(r"[ \t\n\r]*([,}])[ \t\n\r]*")
_scan_value = make_scanner(json.JSONDecoder())


def _top_level(raw: bytes) -> dict | None:
    """The top-level object of ASCII JSON text as `json.loads` reads it, but
    with the (start, end) byte span of each "trace" and "tuple" value in place
    of the value; None when the text is not such an object, a key has an
    escape, or a span does not end in "]".

    A span runs from its first byte to the last "]" before the next quote or
    "}", as neither can be inside an array of numbers; what it holds is
    checked by its reader, so a repeated "trace" or "tuple" key gives None.
    Every other value is read by json's own scanner; a repeated key keeps
    its last value, as in `json.loads`.
    """
    text = raw.decode("ascii")
    start = _OPEN.match(text)
    if start is None:
        return None
    data: dict = {}
    i = start.end()
    try:
        while (key := _KEY.match(text, i)) is not None:
            name, i = key.group(1), key.end()
            if name in _SPANS:
                if name in data:  # only json.loads checks the earlier one
                    return None
                stop = raw.find(b'"', i)
                stop = len(raw) if stop < 0 else stop
                close = raw.find(b"}", i, stop)
                end = raw.rfind(b"]", i, stop if close < 0 else close) + 1
                if end <= i:
                    return None
                data[name], i = (i, end), end
            else:
                data[name], i = _scan_value(text, i)
            after = _NEXT.match(text, i)
            if after is None:
                return None
            i = after.end()
            if after.group(1) == "}":
                return data if i == len(text) else None
    # a missing value stops the scanner; ValueError covers bad strings, bad
    # numbers and integers past the digit limit
    except (StopIteration, ValueError, RecursionError):
        return None
    return None


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


def _flat_certificate(raw: bytes) -> Certificate | None:
    """The certificate, or the format error, that `certificate_from_dict` gives
    for the object `json.loads` reads from raw, by the byte route; None when
    the route cannot read raw."""
    if not raw.isascii():
        return None
    data = _top_level(raw)
    if data is None or not all(isinstance(data.get(key), tuple) for key in _SPANS):
        return None
    rank, s = data.get("rank"), data.get("s")
    if type(rank) is not int or type(s) is not int or rank < 1 or s < 1:
        return None
    read = [_read_matrices(raw[slice(*data[key])], rank, s, key == "trace") for key in _SPANS]
    if None in read:
        return None
    values, head_values = read
    mats = zip(*[zip(*[iter(values)] * s)] * 4)
    trace = tuple(zip(*[mats] * rank))
    head = tuple(zip(*[zip(*[iter(head_values)] * s)] * 4))
    _check_header(data)
    return _certificate(data, trace, head)


def certificate_from_bytes(raw: bytes) -> Certificate:
    """The certificate in raw, exactly as `certificate_from_dict` reads the
    JSON object that `json.loads` gives, or the same `CertificateFormatError`.

    The trace and the declared tuple are read by the byte route when the text
    is ASCII and both are arrays of the shape rank and s imply, holding
    nonnegative JSON integers; any other text goes through `json.loads`.
    """
    cert = _flat_certificate(raw)
    if cert is not None:
        return cert
    try:
        data = json.loads(raw.decode("utf-8"))
    # ValueError covers bad UTF-8, bad JSON and integers past the digit limit
    except (ValueError, RecursionError) as exc:
        raise _shape_error(f"not valid JSON: {exc}") from exc
    return certificate_from_dict(data)


def verify_work(period: int, images, word: str) -> int:
    """The letters the verifier parses and evaluates: period x sum |phi(x_j)| + |w|."""
    return max(period, 1) * sum(map(len, images)) + len(word)


def max_certificate_bytes(order_cap: int) -> int:
    """The verifier's byte cap at field-order cap order_cap: half again the
    canonical trace of the most coefficients that MAX_VERIFY_WORK admits.

    The widest rows within the cap are those of F_{2^s}, 2^s <= order_cap <
    2^(s+1): s one-digit coefficients, 2s + 1 bytes.  A field of p^t elements
    with p > 2 has rows of t(d + 1) + 1 bytes, d the digits of p - 1, and
    t(d + 1) <= 2s.  When every image has a letter, period x rank <=
    MAX_VERIFY_WORK - 1 (the word has one too), so the trace of rank 1, image
    "a", word "a" and period MAX_VERIFY_WORK - 1 holds the most matrices, at
    8s + 12 bytes an entry (`[[r,r,r,r]],`): 45,088,596 bytes at 2^20.  A
    shape of higher rank holds at most 25 more matrices in its trace and
    declared tuple together, and the largest, a period-1 certificate of rank
    131,071 (images `x1`), is 0.3 % larger.  The other half admits those and
    json.dumps's default separators, a space after each of the 80 commas of
    an entry at s = 20: the cap is 67,632,894 bytes at 2^20.  An empty image
    costs no work, so a certificate with empty images can be past the cap,
    which refuses it.
    """
    s = order_cap.bit_length() - 1
    return (MAX_VERIFY_WORK - 1) * (8 * s + 12) * 3 // 2


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
            if p**s > config.order_cap:
                break
            field = field_create(p, s, config.order_cap)
            step = proj_step(phi, field)
            frontier.append((p, s, config.seeds_per_field))
            for seed_index in range(config.seeds_per_field):
                rng = random.Random(f"{config.seed}:{p}:{s}:{seed_index}")
                states: list[tuple] = []
                result = state_orbit(step, random_state(field, k, rng), config.orbit_budget, states)
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
                    verdict = verify_certificate(cert, order_cap=config.order_cap)
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


def _order_within_cap(p: int, s: int, cap: int) -> bool:
    """Whether p^s <= cap for p >= 2, in at most log2(cap) + 1 multiplications."""
    order = 1
    for _ in range(s):
        order *= p
        if order > cap:
            return False
    return True


def _structure_problems(cert: Certificate, order_cap: int
                        ) -> tuple[list[str], tuple[FreeEndo, Word] | None, list[tuple]]:
    """Problems found, the parsed endomorphism and word when both parse, and
    the element indices of the trace (`trace_indices`) when it checks."""
    problems = []
    parsed = None
    if cert.format_version != FORMAT_VERSION:
        problems.append(f"unsupported format_version {cert.format_version}")
    if cert.rank < 1:
        problems.append("rank must be >= 1")
    if len(cert.images) != cert.rank:
        problems.append(f"{len(cert.images)} images for rank {cert.rank}")
    # p and s are untrusted: bound them before the primality test or p**s runs
    bounded = cert.p < 2 or _order_within_cap(cert.p, max(cert.s, 1), order_cap)
    if not bounded:
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
            if w.to_text() != cert.word:
                problems.append(f"word {cert.word!r} is not freely reduced")
        except WordError as exc:
            problems.append(f"word syntax: {exc}")
    # whole-trace passes: as in the parser, each cuts the trace at its first
    # bad entry, so the last problem found is the first entry's, taken in the
    # order arity, row count, range
    s, p, rank = cert.s, cert.p, cert.rank
    trace, problem, indices = cert.trace, None, None
    end = _first(map(rank.__ne__, map(len, trace)))
    if end is not None:
        problem, trace = "trace entry arity differs from rank", trace[:end]
    mats = list(chain.from_iterable(trace))
    end = _first(map((4).__ne__, map(len, mats)))  # parsed files have 4; in-code ones may not
    if end is not None:  # the entries before its own hold rank >= 1 matrices each
        problem, mats = "trace matrix does not have 4 entry rows", mats[:end - end % rank]
    rows = list(chain.from_iterable(mats))
    coeffs = list(chain.from_iterable(rows))
    if not set(map(len, rows)) <= {s}:
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


def verify_certificate(cert: Certificate,
                       order_cap: int = DEFAULT_ORDER_CAP) -> CertVerdict:
    """Independent re-derivation of every certificate condition.

    Rebuilds the field from (p, s) alone, re-walks the orbit once through
    `build_wreath`, and reports one named result per condition; nothing
    produced by the search is trusted.
    """
    checks: list[CheckResult] = []

    problems, parsed, indices = _structure_problems(cert, order_cap)
    _record(checks, problems, "fields, words and shapes are coherent")
    if problems:
        return _skip_rest(checks, "structure check failed")

    phi, w = parsed
    field = field_create(cert.p, cert.s, order_cap)
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
