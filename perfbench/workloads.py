"""Seeded inputs for the four benchmark workloads.

Each generator turns a seed into a batch: a list of jobs (the argv handed to
`quasifix.cli.main`, plus what the checker expects of the output) and the
input files those jobs read.  The same seed always gives byte-identical
batches.  Job shapes are stratified (a fixed number of jobs per size class,
with only coefficients, words and starting points drawn from the seed), so
that the work in a batch, and therefore its timings, barely depend on the
seed; the size limits below are what keep heavy-tailed cases out.

Only `verify` (building certificates) and the phi-lift maps of `enumerate`
call into quasifix while generating; every other input is made here from
plain integers.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("enumerate", "certify", "verify", "iq")

# enumerate: (n, p, s) classes, each with ENUM_JOBS_PER_CLASS quasifixed jobs
# that scan every point of A^n over F_{p^t}, t = 1..s.  Each s is the largest
# degree whose job takes at most ~0.1 s inside a batch (mean of five seeded
# maps after a warm-up job; 2-vCPU Xeon, Python 3.11), except that (1, 3)
# and (2, 3) stay one degree lower (1.2 s and 0.8 s more a pass), so that a
# pass takes ~4.7 s and a 25 s run holds four passes with set-up and checks.
# The next degree up is in brackets.
ENUM_CLASSES = (
    (1, 2, 7),  # F_128: 254 points, 95 ms  (s=8: 510 points, 295 ms)
    (1, 3, 4),  # F_81: 120 points, 28 ms  (s=5: 363 points, 105 ms)
    (1, 5, 3),  # F_125: 155 points, 29 ms  (s=4: 780 points, 273 ms)
    (1, 7, 3),  # F_343: 399 points, 83 ms  (s=4: 2800 points)
    (2, 2, 4),  # F_16: 340 points, 38 ms  (s=5: 1364 points, 129 ms)
    (2, 3, 2),  # F_9: 90 points, 9 ms  (s=3: 819 points, 69 ms)
    (2, 5, 2),  # F_25: 650 points, 48 ms  (s=3: 16275 points)
    (3, 2, 3),  # F_8: 584 points, 77 ms  (s=4: 4680 points, 843 ms)
)
ENUM_JOBS_PER_CLASS = 11
ENUM_DENSITY_JOBS = 10
# lifted rank-1 maps over F_2 in 4 variables: s=2 takes ~55 ms (s=3: 1.0-1.5 s)
ENUM_LIFT_JOBS = 3
ENUM_LIFT_S = 2

# certify: random injective endomorphisms of rank k, jobs per (k, p), p the
# first admissible prime.  The orbit walk lives in PGL2(F_p)^k, at most
# 14400 points in these classes; much larger sets give jobs of tens of seconds.
# The orbit length within a class still varies with the seed: with 200 jobs
# the batch time of ten seeds spread by 8 % (IQR over median), so the batch
# has 400, which halves the variance that the draw of inputs adds.
CERT_CLASSES = (((1, 3), 54), ((1, 5), 80), ((2, 3), 114), ((2, 5), 20), ((3, 3), 132))
# |phi^(4k)(w)| bound: prime selection works on this word, and unbounded
# growth is the defect the pinned inputs below keep visible
CERT_GROWTH_LIMIT = 2000
# valid inputs that exit 2 today ("image word grew past budget")
CERT_PINNED = ((("abc", "bca", "cab"), "aB"), (("aabb", "ab", "c"), "abc"))

# iq: (n, p, Q, j, coordinate degree, jobs); Q is a power of p above the degree
IQ_SHAPES = (
    (1, 2, 4, 1, 3, 8), (1, 2, 4, 2, 3, 8), (1, 2, 4, 3, 3, 8),
    (1, 2, 8, 1, 7, 6), (1, 2, 8, 2, 7, 6), (1, 2, 8, 3, 5, 8),
    (1, 3, 9, 1, 8, 6), (1, 3, 9, 2, 8, 6), (1, 3, 9, 3, 4, 8),
    (2, 2, 4, 1, 3, 6), (2, 2, 4, 2, 2, 8), (2, 2, 4, 2, 3, 6),
    (2, 2, 8, 1, 7, 4), (2, 2, 8, 2, 1, 6),
    (2, 3, 9, 1, 8, 4), (2, 3, 9, 2, 1, 6),
)
IQ_TERMS = 3

# verify: (p, s, images, word, period); each slot takes the first seeded start
# whose orbit has this period (a common one for the map), so that the
# verification work is the same for every seed
VERIFY_SLOTS = (
    (2, 4, ("ab", "ba"), "a", 12),
    (2, 5, ("aaa",), "a", 30),
    (2, 6, ("aaa",), "a", 12),
    (2, 7, ("aaa",), "a", 126),
    (2, 8, ("aaa",), "a", 16),
    (2, 9, ("aaa",), "a", 12),
    (2, 10, ("aaa",), "a", 30),
    (3, 3, ("aa",), "a", 12),
    (3, 4, ("aa",), "a", 20),
    (5, 2, ("aaa",), "a", 3),
    (7, 2, ("aaa",), "a", 20),
    (13, 2, ("aaa",), "a", 16),
)
VERIFY_START_TRIES = 40
# hostile certificates claim a prime in each of these ranges (12 and 13 digits)
VERIFY_HOSTILE_RANGES = ((2 * 10**11, 22 * 10**10), (2 * 10**12, 22 * 10**11))

LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Batch:
    """Jobs of one workload plus the input files they read (name -> bytes)."""

    workload: str
    seed: int
    jobs: list[dict] = field(default_factory=list)
    files: dict[str, bytes] = field(default_factory=dict)
    size: dict[str, int] = field(default_factory=dict)

    def add(self, kind: str, argv: list[str], **expect) -> None:
        self.jobs.append({"kind": kind, "argv": argv, "expect": expect})

    def fingerprint(self) -> str:
        h = hashlib.sha256(json.dumps(self.jobs, sort_keys=True).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name])
        return h.hexdigest()


def make_batch(workload: str, seed: int) -> Batch:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    batch = Batch(workload, seed)
    rng = random.Random(f"quasifix-bench:{workload}:{seed}")
    {"enumerate": _enumerate, "certify": _certify, "verify": _verify,
     "iq": _iq}[workload](batch, rng)
    batch.size["jobs"] = len(batch.jobs)
    return batch


# ---------------------------------------------------------------------------
# polynomials as text, built from exponent vectors

def _poly_text(terms: dict[tuple[int, ...], int]) -> str:
    parts = []
    for expo in sorted(terms, reverse=True):
        c = terms[expo]
        factors = [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                   for i, e in enumerate(expo) if e]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return "+".join(parts) if parts else "0"


def _random_terms(rng: random.Random, n: int, p: int, nterms: int,
                  degree: int) -> dict[tuple[int, ...], int]:
    """nterms distinct monomials of total degree <= degree, one of exactly degree."""
    terms: dict[tuple[int, ...], int] = {}
    while len(terms) < nterms:
        d = degree if not terms else rng.randrange(degree + 1)
        expo = [0] * n
        for _ in range(d):
            expo[rng.randrange(n)] += 1
        terms.setdefault(tuple(expo), rng.randrange(1, p))
    return terms


def _eval_terms(terms: dict[tuple[int, ...], int], point: tuple[int, ...], p: int) -> int:
    return sum(c * math.prod(a**e for a, e in zip(point, expo))
               for expo, c in terms.items()) % p


def points_scanned(p: int, n: int, s: int) -> int:
    return sum(p ** (t * n) for t in range(1, s + 1))


# ---------------------------------------------------------------------------
# enumerate

def _enumerate(batch: Batch, rng: random.Random) -> None:
    from quasifix.freegroup import FreeEndo
    from quasifix.matrep import phi_lift_polynomials

    jobs: list[tuple] = []
    for n, p, s in ENUM_CLASSES:
        for _ in range(ENUM_JOBS_PER_CLASS):
            coords = [_poly_text(_random_terms(rng, n, p, 3, 3)) for _ in range(n)]
            jobs.append(("quasifixed", n, p, ",".join(coords), s))
    for _ in range(ENUM_LIFT_JOBS):
        e = rng.choice((2, 3))
        image = rng.choice(("a", "A")) * e
        lifted = phi_lift_polynomials(FreeEndo.parse([image], 1), 2)
        jobs.append(("quasifixed", 4, 2, ",".join(f.to_text() for f in lifted.coords),
                     ENUM_LIFT_S))
    for i in range(ENUM_DENSITY_JOBS):
        n, p, s = ENUM_CLASSES[i % len(ENUM_CLASSES)]
        if n > 2:
            n, p, s = next(c for c in ENUM_CLASSES if c[:2] == (2, 2))
        # plant a fixed point a0 over F_p (so f(a0) = a0 = a0^p) outside W
        a0 = tuple(rng.randrange(p) for _ in range(n))
        coords = []
        for i_coord in range(n):
            terms = _random_terms(rng, n, p, 3, 3)
            zero = (0,) * n
            shift = (a0[i_coord] - _eval_terms(terms, a0, p)) % p
            terms[zero] = (terms.get(zero, 0) + shift) % p
            coords.append(_poly_text({e: c for e, c in terms.items() if c}))
        while True:
            avoid = _random_terms(rng, n, p, rng.randrange(1, 3), 2)
            if _eval_terms(avoid, a0, p):
                break
        jobs.append(("density", n, p, ",".join(coords), s, _poly_text(avoid)))
    rng.shuffle(jobs)
    scanned = 0
    for job in jobs:
        kind, n, p, text, s = job[:5]
        argv = [kind, "--p", str(p), "--n", str(n), "--map", text, "--smax", str(s)]
        if kind == "density":
            argv += ["--w", job[5]]
        else:
            scanned += points_scanned(p, n, s)
        batch.add(kind, argv + ["--format", "json"])
    batch.size["points_scanned"] = scanned


# ---------------------------------------------------------------------------
# certify: free-group words as signed generator indices

def _reduce(letters) -> list[int]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _apply(images: list[list[int]], word: list[int]) -> list[int]:
    out: list[int] = []
    for x in word:
        image = images[abs(x) - 1]
        out.extend(image if x > 0 else [-y for y in reversed(image)])
    return _reduce(out)


def _compose(f: list[list[int]], g: list[list[int]]) -> list[list[int]]:
    """f after g."""
    return [_apply(f, image) for image in g]


def _word_text(word: list[int]) -> str:
    return "".join(LETTERS[abs(x) - 1] if x > 0 else LETTERS[abs(x) - 1].upper()
                   for x in word)


def _random_automorphism(rng: random.Random, k: int) -> list[list[int]]:
    """A product of random elementary Nielsen moves (always an automorphism)."""
    images = [[i] for i in range(1, k + 1)]
    for _ in range(rng.randrange(3)):
        move = [[i] for i in range(1, k + 1)]
        if k == 1:
            move[0] = [-1]
        else:
            i, j = rng.sample(range(k), 2)
            e = rng.choice((1, -1)) * (j + 1)
            kind = rng.randrange(3)
            if kind == 0:
                move[i] = [i + 1, e]
            elif kind == 1:
                move[i] = [e, i + 1]
            else:
                move[i], move[j] = move[j], move[i]
        images = _compose(images, move)
    return images


def _random_injective(rng: random.Random, k: int) -> list[list[int]]:
    """alpha . delta . beta: automorphisms around a generator-power map.

    x_i -> x_i^(e_i) with e_i != 0 is injective and so is any composite
    with automorphisms; one e_i >= 2 keeps the map from being an
    automorphism, whose bijective orbits run far longer.
    """
    powers = [rng.choice((1, 2)) for _ in range(k)]
    powers[rng.randrange(k)] = rng.choice((2, 3))
    delta = [[i + 1] * e for i, e in enumerate(powers)]
    return _compose(_random_automorphism(rng, k),
                    _compose(delta, _random_automorphism(rng, k)))


def _sanov_matrix(word: list[int], k: int) -> tuple[int, int, int, int]:
    """Integer matrix of the word under x_1 -> [[1,2],[0,1]], x_2 -> [[1,0],[2,1]]
    (rank <= 2) or x_i -> s1^i s2 s1^-i (rank 3), as in the Sanov embedding."""
    def mul(x, y):
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])

    gens = []
    for i in range(1, k + 1):
        if k <= 2:
            gens.append((1, 2, 0, 1) if i == 1 else (1, 0, 2, 1))
        else:
            gens.append(mul(mul((1, 2 * i, 0, 1), (1, 0, 2, 1)), (1, -2 * i, 0, 1)))
    acc = (1, 0, 0, 1)
    for x in word:
        a, b, c, d = gens[abs(x) - 1]
        acc = mul(acc, (a, b, c, d) if x > 0 else (d, -b, -c, a))
    return acc


def _first_admissible_prime(image: list[int], k: int) -> int:
    a, b, c, d = _sanov_matrix(image, k)
    g = math.gcd(b, c, a - d)
    p = 2
    while g % p == 0 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += 1
    return p


def _certify(batch: Batch, rng: random.Random) -> None:
    letters = 0
    slots = [cls for cls, count in CERT_CLASSES for _ in range(count)]
    for i, (k, prime) in enumerate(slots):
        while True:
            images = _random_injective(rng, k)
            if max(len(im) for im in images) > 4:
                continue
            length = rng.randrange(1, 5)
            word = _reduce(rng.choice((1, -1)) * rng.randrange(1, k + 1)
                           for _ in range(length))
            if len(word) != length:
                continue
            image = word
            for _ in range(4 * k):
                image = _apply(images, image)
                if len(image) > CERT_GROWTH_LIMIT:
                    break
            if (len(image) <= CERT_GROWTH_LIMIT
                    and _first_admissible_prime(image, k) == prime):
                break
        letters += len(image)
        _add_certify_job(batch, i, [_word_text(im) for im in images], _word_text(word))
    rng.shuffle(batch.jobs)
    # the pinned jobs go first, on a fresh heap, so that the memory their
    # runaway words take shows the same way in peak_rss_mb for every seed
    for j, (images, word) in enumerate(CERT_PINNED):
        _add_certify_job(batch, len(slots) + j, list(images), word)
    batch.jobs = batch.jobs[-len(CERT_PINNED):] + batch.jobs[:-len(CERT_PINNED)]
    batch.size["prime_selection_letters"] = letters


def _add_certify_job(batch: Batch, index: int, images: list[str], word: str) -> None:
    name = f"endo_{index:03d}.json"
    batch.files[name] = json.dumps({"rank": len(images), "images": images}).encode()
    batch.add("certify", ["certify", "--endo", f"../in/{name}", "--word", word,
                          "--out", f"cert_{index:03d}.json", "--format", "json"],
              images=images, word=word, out=f"cert_{index:03d}.json")


# ---------------------------------------------------------------------------
# iq

def _iq(batch: Batch, rng: random.Random) -> None:
    jobs = []
    for n, p, Q, j, degree, count in IQ_SHAPES:
        for _ in range(count):
            coords = [_poly_text(_random_terms(rng, n, p, IQ_TERMS, degree))
                      for _ in range(n)]
            jobs.append((n, p, Q, j, ",".join(coords)))
    rng.shuffle(jobs)
    for n, p, Q, j, text in jobs:
        batch.add("iq", ["iq", "--p", str(p), "--n", str(n), "--map", text,
                         "--q", str(Q), "--j", str(j), "--format", "json"],
                  n=n, Q=Q, j=j)
    batch.size["sum_Q_n"] = sum(Q**n for n, _, Q, _, _ in jobs)


# ---------------------------------------------------------------------------
# verify: valid certificates, their tampered copies, hostile primes

def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in small:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _verify(batch: Batch, rng: random.Random) -> None:
    from quasifix.certify import Certificate
    from quasifix.freegroup import FreeEndo, Word
    from quasifix.gf import field_create
    from quasifix.matrep import (find_periodic_orbit, pgl_dynamics_step, pi_w,
                                 random_projpoint)

    files: list[tuple[str, bytes, str | None]] = []  # name, bytes, expected failure
    bases = []
    for slot, (p, s, images, word, period) in enumerate(VERIFY_SLOTS):
        phi = FreeEndo.parse(images, len(images))
        w = Word.parse(word, phi.rank)
        field_ = field_create(p, s)
        for attempt in range(VERIFY_START_TRIES):
            start_rng = random.Random(f"{batch.seed}:{slot}:{attempt}")
            orbit = find_periodic_orbit(phi, random_projpoint(field_, phi.rank, start_rng),
                                        budget=4 * period + 100)
            if orbit.period != period:
                continue
            points = [orbit.point]
            for _ in range(orbit.period - 1):
                points.append(pgl_dynamics_step(phi, points[-1]))
            rotation = next((r for r, pt in enumerate(points)
                             if not pi_w(w, pt.tuple).is_scalar()), None)
            if rotation is None:
                continue
            points = points[rotation:] + points[:rotation]
            cert = Certificate(
                rank=phi.rank, images=images, word=word, p=p, s=s, period=orbit.period,
                trace=tuple(tuple((m.a.coeffs, m.b.coeffs, m.c.coeffs, m.d.coeffs)
                                  for m in pt.tuple.mats) for pt in points),
                seed=batch.seed)
            try:
                family = _family(slot, cert)
            except _Unmutable:
                continue
            break
        else:
            raise RuntimeError(f"verify slot {slot}: no start with period {period}")
        bases.append(cert)
        files.extend(family)
    trace_entries = sum(len(json.loads(blob)["trace"]) for _, blob, _ in files)
    for h, (lo, hi) in enumerate(VERIFY_HOSTILE_RANGES):
        data = json.loads(bases[h % len(bases)].to_bytes())
        q = rng.randrange(lo, hi) | 1
        while not _is_prime(q):
            q += 2
        data["p"] = q
        files.append((f"hostile_{h}.json", json.dumps(data).encode(), "structure"))
    rng.shuffle(files)
    for name, blob, expected in files:
        batch.files[name] = blob
        batch.add("verify", ["verify", f"../in/{name}", "--format", "json"],
                  failure=expected)
    batch.size["trace_entries"] = trace_entries


class _Unmutable(Exception):
    """This certificate cannot carry one of the mutation classes; try another start."""


def _family(slot: int, cert) -> list[tuple[str, bytes, str | None]]:
    """The valid file plus one tampered copy per criterion-7 mutation class."""
    blob = cert.to_bytes()
    family = [(f"v{slot:02d}_valid.json", blob, None)]
    for name, (expected, mutate) in MUTATIONS.items():
        data = json.loads(blob)
        mutate(data, cert)
        family.append((f"v{slot:02d}_{name}.json", json.dumps(data).encode(), expected))
    return family


def _mat(field_, rows):
    from quasifix.matrep import Mat2
    return Mat2.from_entries(field_, [field_.element(row) for row in rows])


def _step_differs(images: list[str], cert, p: int, trace) -> bool:
    """Whether every trace matrix is a valid PGL2(F_{p^s}) point and one lifted
    step from trace[0] misses trace[1], so that only condition_ii can fail."""
    from quasifix.freegroup import FreeEndo
    from quasifix.gf import field_create
    from quasifix.matrep import MatTuple, ProjPoint, SingularMatrixError, pgl_dynamics_step

    field_ = field_create(p, cert.s)
    tuples = [[_mat(field_, m) for m in entry] for entry in trace]
    if any(m.det().is_zero() or m.normalized() != m for entry in tuples for m in entry):
        return False
    try:
        stepped = pgl_dynamics_step(FreeEndo.parse(images, cert.rank),
                                    ProjPoint(MatTuple(tuples[0])))
    except SingularMatrixError:
        return True
    return stepped != ProjPoint(MatTuple(tuples[1]))


def _wrong_prime(d: dict, cert) -> None:
    """Next prime (keeping coefficients in range) under which the orbit breaks."""
    from quasifix.gf import DEFAULT_ORDER_CAP

    q = cert.p + 1
    while not (_is_prime(q) and _step_differs(list(cert.images), cert, q, d["trace"])):
        q += 1
        if q**cert.s > DEFAULT_ORDER_CAP:
            raise _Unmutable("no other prime keeps every trace matrix invertible")
    d["p"] = q


def _tampered_images(d: dict, cert) -> None:
    for letter in LETTERS[:cert.rank] + LETTERS[:cert.rank].upper():
        image = d["images"][0]
        if image and image[-1] == letter.swapcase():
            continue
        images = [image + letter] + d["images"][1:]
        if _step_differs(images, cert, cert.p, d["trace"]):
            d["images"] = images
            return
    raise _Unmutable("no image tampering breaks the orbit")


def _tampered_entry(d: dict, cert) -> None:
    """Shift one coefficient of trace[1] while keeping its matrix invertible."""
    from quasifix.gf import field_create

    field_ = field_create(cert.p, cert.s)
    for m, mat in enumerate(d["trace"][1]):
        for delta in range(1, cert.p):
            row = list(mat[3])
            row[0] = (row[0] + delta) % cert.p
            candidate = mat[:3] + [row]
            if not _mat(field_, candidate).det().is_zero():
                d["trace"][1][m] = candidate
                return
    raise _Unmutable("no invertible entry tampering")


def _padded_period(d: dict, cert) -> None:
    d["period"] += 1
    d["trace"].append(d["trace"][0])


def _scalar_tuple(d: dict, cert) -> None:
    ident = [[1] + [0] * (cert.s - 1), [0] * cert.s, [0] * cert.s, [1] + [0] * (cert.s - 1)]
    d["period"] = 1
    d["trace"] = [[ident] * cert.rank]
    d["tuple"] = [ident] * cert.rank


def _singular(d: dict, cert) -> None:
    singular = [[1] + [0] * (cert.s - 1), [0] * cert.s, [0] * cert.s, [0] * cert.s]
    d["trace"][0][0] = singular
    d["tuple"][0] = singular


def _denormalized(d: dict, cert) -> None:
    for mat in d["trace"][1]:
        for row in mat:
            for i, c in enumerate(row):
                row[i] = (2 * c) % cert.p


# the criterion-7 mutation classes: name -> (check the verifier must fail, edit)
MUTATIONS = {
    "padded_period": ("condition_ii", _padded_period),
    "period_field_only": ("structure",
                          lambda d, cert: d.__setitem__("period", d["period"] + 1)),
    "swapped_entries": ("condition_ii", lambda d, cert: d.__setitem__(
        "trace", d["trace"][:1] + [d["trace"][2], d["trace"][1]] + d["trace"][3:])),
    "scalar_tuple": ("condition_iii", _scalar_tuple),
    "singular_matrix": ("tuple_in_group", _singular),
    "wrong_prime": ("condition_ii", _wrong_prime),
    "tampered_images": ("condition_ii", _tampered_images),
    "tampered_entry": ("condition_ii", _tampered_entry),
    "denormalized": ("tuple_in_group", _denormalized),
    "head_mismatch": ("structure", lambda d, cert: d.__setitem__("tuple", d["trace"][1])),
}
