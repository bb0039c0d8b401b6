"""2x2 matrices over F_{p^m} and the induced dynamics on matrix tuples.

A word w in k letters acts on k-tuples of matrices by substituting the
adjugate for each inverse letter; on determinant-1 tuples this agrees with
honest word evaluation, and it is polynomial on the whole matrix space.
An endomorphism of the free group therefore lifts to a polynomial self-map
of k-tuples, whose projective dynamics (matrices up to scalars) is what the
certificate search walks with Brent cycle detection.

A matrix is stored as the four discrete logs of its entries to the primitive
element g of `FqField.log_tables`, with n = q - 1 standing for 0.  Products
of entries are sums of logs mod n, sums go through the Zech table, negation
adds log(-1) (n/2 for odd p, 0 for p = 2) and scaling a matrix subtracts one
log from its nonzero entries, so no arithmetic creates a field element.

A point of PGL2(F_q)^k is walked as a state: the k normalized log 4-tuples
that `MatTuple._key` holds.  `proj_step` builds the step of the lifted map
on states once per (phi, field); `find_periodic_orbit`, `pgl_dynamics_step`
and `random_projpoint` take and return `ProjPoint`s but build one only at
their ends.  The certificate search keeps states until it writes rows, and
the verifier reads rows into states and checks them with the same kernels;
`state_rows` and `state_from_rows` are the only row <-> log converters.
`Mat2` objects are built by the public `Mat2`/`pi_w`/`phi_lift` API; field
elements only at `Mat2.from_entries`, the entry properties and `Mat2.det`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .freegroup import FreeEndo, Word, WordError
from .gf import FqElement, FqField
from .poly import MPoly, PolyMap


class SingularMatrixError(ValueError):
    """A projective operation met a non-invertible matrix."""


# ---------------------------------------------------------------------------
# arithmetic on 4-tuples of logs; n = q - 1 is the log of 0

def _dot(a: int, e: int, b: int, g: int, n: int, zech) -> int:
    """log(x*y + z*u) from the logs a, e, b, g of x, y, z, u."""
    if a == n or e == n:
        return n if b == n or g == n else (b + g) % n
    if b == n or g == n:
        return (a + e) % n
    s = a + e
    z = zech[(b + g - s) % n]
    return n if z == n else (s + z) % n


def _mul(x: tuple, y: tuple, n: int, zech) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return (_dot(a, e, b, g, n, zech), _dot(a, f, b, h, n, zech),
            _dot(c, e, d, g, n, zech), _dot(c, f, d, h, n, zech))


def _adj(x: tuple, n: int, neg: int) -> tuple:
    a, b, c, d = x
    return (d, b if b == n else (b + neg) % n, c if c == n else (c + neg) % n, a)


def _det(x: tuple, n: int, zech, neg: int) -> int:
    a, b, c, d = x
    return _dot(a, d, b, c if c == n else (c + neg) % n, n, zech)


def _is_scalar(x: tuple, n: int) -> bool:
    a, b, c, d = x
    return b == n and c == n and a == d


def _normalized(x: tuple, n: int) -> tuple:
    """Subtract the log of the first nonzero entry in row-major order."""
    a, b, c, d = x
    f = a if a != n else b if b != n else c if c != n else d
    if f == 0:
        return x
    if f == n:
        raise SingularMatrixError("cannot normalize the zero matrix")
    return (a if a == n else (a - f) % n, b if b == n else (b - f) % n,
            c if c == n else (c - f) % n, d if d == n else (d - f) % n)


def _word(letters, mats, n: int, zech, neg: int) -> tuple:
    """Logs of the word's value at mats, the adjugate standing for each inverse letter."""
    acc = None  # the identity, whose product with m is exactly m
    for x in letters:
        m = mats[x - 1] if x > 0 else _adj(mats[-x - 1], n, neg)
        acc = m if acc is None else _mul(acc, m, n, zech)
    return (0, n, n, 0) if acc is None else acc


def _tables(field: FqField) -> tuple:
    """(n, zech, log(-1)) of the field's log tables."""
    n = field.order - 1
    return n, field.log_tables()[2], 0 if field.p == 2 else n // 2


class Mat2:
    """2x2 matrix with entries in one finite field, as logs; immutable."""

    __slots__ = ("field", "logs")

    def __init__(self, field: FqField, logs: tuple[int, int, int, int]):
        self.field = field
        self.logs = logs

    @classmethod
    def identity(cls, field: FqField) -> "Mat2":
        n = field.order - 1
        return cls(field, (0, n, n, 0))

    @classmethod
    def from_entries(cls, field: FqField, entries) -> "Mat2":
        entries = tuple(entries)
        for x in entries:
            if x.field != field:
                raise SingularMatrixError("entries belong to a different field")
        log = field.log_tables()[1]
        a, b, c, d = (log[x.to_int()] for x in entries)
        return cls(field, (a, b, c, d))

    def _entry(self, log: int) -> FqElement:
        return self.field.from_int(self.field.log_tables()[0][log])

    @property
    def a(self) -> FqElement:
        return self._entry(self.logs[0])

    @property
    def b(self) -> FqElement:
        return self._entry(self.logs[1])

    @property
    def c(self) -> FqElement:
        return self._entry(self.logs[2])

    @property
    def d(self) -> FqElement:
        return self._entry(self.logs[3])

    def __mul__(self, o: "Mat2") -> "Mat2":
        n, zech, _ = _tables(self.field)
        return Mat2(self.field, _mul(self.logs, o.logs, n, zech))

    def adj(self) -> "Mat2":
        n, _, neg = _tables(self.field)
        return Mat2(self.field, _adj(self.logs, n, neg))

    def det(self) -> FqElement:
        return self._entry(_det(self.logs, *_tables(self.field)))

    def is_scalar(self) -> bool:
        return _is_scalar(self.logs, self.field.order - 1)

    def normalized(self) -> "Mat2":
        """Scale so the first nonzero entry in row-major order is 1."""
        return Mat2(self.field, _normalized(self.logs, self.field.order - 1))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Mat2) and self.logs == other.logs
                and self.field == other.field)

    def __hash__(self) -> int:
        return hash(self.logs)

    def __repr__(self) -> str:
        return f"Mat2([[{self.a}, {self.b}], [{self.c}, {self.d}]])"


class MatTuple:
    """k-tuple of 2x2 matrices over one field."""

    __slots__ = ("field", "mats", "_key")

    def __init__(self, mats):
        mats = tuple(mats)
        if not mats:
            raise WordError("a matrix tuple needs at least one component")
        field = mats[0].field
        for m in mats:
            if m.field != field:
                raise SingularMatrixError("tuple components over different fields")
        self.field = field
        self.mats = mats
        self._key = tuple(m.logs for m in mats)

    @property
    def k(self) -> int:
        return len(self.mats)

    def __getitem__(self, i: int) -> Mat2:
        return self.mats[i]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MatTuple) and self._key == other._key
                and self.field == other.field)

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"MatTuple({list(self.mats)!r})"


class ProjPoint:
    """Tuple of invertible matrices in scalar-canonical form (a PGL2^k point)."""

    __slots__ = ("tuple",)

    def __init__(self, t: MatTuple):
        self.tuple = t

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProjPoint) and self.tuple == other.tuple

    def __hash__(self) -> int:
        return hash(self.tuple)

    def __repr__(self) -> str:
        return f"ProjPoint({self.tuple!r})"


def pi_w(w: Word, t: MatTuple) -> Mat2:
    """Evaluate w with the adjugate substituted for every inverse letter."""
    if w.rank != t.k:
        raise WordError(f"word rank {w.rank} does not match tuple length {t.k}")
    return Mat2(t.field, _word(w.letters, t._key, *_tables(t.field)))


def phi_lift(phi: FreeEndo, t: MatTuple) -> MatTuple:
    """Point-level action of the lifted endomorphism on matrix tuples."""
    if phi.rank != t.k:
        raise WordError("endomorphism rank does not match tuple length")
    return MatTuple(tuple(pi_w(w, t) for w in phi.images))


def phi_lift_polynomials(phi: FreeEndo, p: int) -> PolyMap:
    """Symbolic form of the lifted map in the 4k matrix-entry coordinates.

    Variable 4*i + (2r + c) is the (r, c) entry of the i-th matrix; the
    returned map evaluated at a flattened tuple agrees with phi_lift.
    """
    k = phi.rank
    nvars = 4 * k

    def sym_matrix(i: int):
        return tuple(MPoly.var(4 * i + j + 1, nvars, p) for j in range(4))

    def sym_adj(m):
        a, b, c, d = m
        return (d, -b, -c, a)

    def sym_mul(x, y):
        xa, xb, xc, xd = x
        ya, yb, yc, yd = y
        return (xa * ya + xb * yc, xa * yb + xb * yd,
                xc * ya + xd * yc, xc * yb + xd * yd)

    one = MPoly.const(1, nvars, p)
    zero = MPoly.zero(nvars, p)
    coords: list[MPoly] = []
    for w in phi.images:
        acc = (one, zero, zero, one)
        for x in w.letters:
            mat = sym_matrix(x - 1) if x > 0 else sym_adj(sym_matrix(-x - 1))
            acc = sym_mul(acc, mat)
        coords.extend(acc)
    return PolyMap(coords)


def proj_normalize(t: MatTuple) -> ProjPoint:
    """Scalar-canonical representative; every component must be invertible."""
    field = t.field
    n, zech, neg = _tables(field)
    normalized = []
    for m in t.mats:
        if _det(m.logs, n, zech, neg) == n:
            raise SingularMatrixError("tuple has a singular component")
        normalized.append(Mat2(field, _normalized(m.logs, n)))
    return ProjPoint(MatTuple(normalized))


# ---------------------------------------------------------------------------
# states: a PGL2(F)^k point as the k normalized log 4-tuples of MatTuple._key

def proj_step(phi: FreeEndo, field: FqField):
    """The projective step of phi's lift on states over one field.

    Each image word is evaluated on the state, its value checked for a zero
    determinant and scaled to scalar-canonical form: `proj_normalize` of
    `phi_lift` without the objects.  Raises SingularMatrixError when a
    value is singular.  The caller matches the state's length to phi.rank.
    """
    n, zech, neg = _tables(field)
    images = tuple(w.letters for w in phi.images)

    def step(state: tuple) -> tuple:
        out = []
        for letters in images:
            x = _word(letters, state, n, zech, neg)
            if _det(x, n, zech, neg) == n:
                raise SingularMatrixError("tuple has a singular component")
            out.append(_normalized(x, n))
        return tuple(out)
    return step


def word_is_scalar(w: Word, field: FqField, state: tuple) -> bool:
    """Whether pi_w at the state is a scalar matrix."""
    n, zech, neg = _tables(field)
    return _is_scalar(_word(w.letters, state, n, zech, neg), n)


def state_rows(field: FqField, state: tuple) -> tuple:
    """The coefficient rows of every entry of every matrix of the state."""
    exp = field.log_tables()[0]
    return tuple(tuple(field._coeffs(exp[x]) for x in m) for m in state)


def state_from_rows(field: FqField, rows) -> tuple:
    """The log 4-tuples of matrices given as coefficient rows: the inverse of
    `state_rows`.  The rows are not checked (the verifier range-checks them)."""
    log = field.log_tables()[1]
    index = field._index
    return tuple(tuple(log[index(row)] for row in m) for m in rows)


def _point(field: FqField, state: tuple) -> ProjPoint:
    return ProjPoint(MatTuple(Mat2(field, m) for m in state))


def _step_for(phi: FreeEndo, h: ProjPoint):
    if phi.rank != h.tuple.k:
        raise WordError("endomorphism rank does not match tuple length")
    return proj_step(phi, h.tuple.field)


def pgl_dynamics_step(phi: FreeEndo, h: ProjPoint) -> ProjPoint:
    return _point(h.tuple.field, _step_for(phi, h)(h.tuple._key))


@dataclass(frozen=True)
class OrbitResult:
    found: bool
    point: ProjPoint | None
    period: int
    steps: int
    reason: str = ""


DEFAULT_ORBIT_BUDGET = 10**7


def find_periodic_orbit(phi: FreeEndo, h0: ProjPoint,
                        budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitResult:
    """Brent cycle detection on the projective step map.

    Returns a point lying on the cycle reached from h0 together with the
    exact minimal period.  Not-found happens only when the iteration budget
    runs out or the orbit leaves the invertible locus.  The walk runs on
    states; only the returned point is an object.
    """
    kernel = _step_for(phi, h0)
    steps = 0

    def step(x: tuple) -> tuple:
        nonlocal steps
        steps += 1
        if steps > budget:
            raise _BudgetExhausted
        return kernel(x)

    try:
        power = lam = 1
        h0_state = tortoise = h0.tuple._key
        hare = step(tortoise)
        while tortoise != hare:
            if power == lam:
                tortoise = hare
                power *= 2
                lam = 0
            hare = step(hare)
            lam += 1
        # advance a second pointer lam steps, then walk both to the cycle
        tortoise = hare = h0_state
        for _ in range(lam):
            hare = step(hare)
        while tortoise != hare:
            tortoise = step(tortoise)
            hare = step(hare)
        return OrbitResult(True, _point(h0.tuple.field, tortoise), lam, steps)
    except _BudgetExhausted:
        return OrbitResult(False, None, 0, steps, reason="budget")
    except SingularMatrixError:
        return OrbitResult(False, None, 0, steps, reason="singular")


class _BudgetExhausted(Exception):
    pass


def random_projpoint(field: FqField, k: int, rng: random.Random) -> ProjPoint:
    """k matrices drawn coefficient by coefficient, each redrawn until invertible."""
    n, zech, neg = _tables(field)
    log = field.log_tables()[1]
    p = field.p
    powers = [p**i for i in range(field.m)]
    draw = rng.randrange

    def entry() -> int:  # log of field._index of m drawn coefficients
        i = 0
        for e in powers:
            i += draw(p) * e
        return log[i]

    state = []
    for _ in range(k):
        while True:
            x = (entry(), entry(), entry(), entry())
            if _det(x, n, zech, neg) != n:
                break
        state.append(_normalized(x, n))
    return _point(field, tuple(state))
