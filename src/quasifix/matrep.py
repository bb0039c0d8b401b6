"""2x2 matrices over F_{p^m} and the induced dynamics on matrix tuples.

A word w in k letters acts on k-tuples of matrices by substituting the
adjugate for each inverse letter; on determinant-1 tuples this agrees with
honest word evaluation, and it is polynomial on the whole matrix space.
An endomorphism of the free group therefore lifts to a polynomial self-map
of k-tuples, whose projective dynamics (matrices up to scalars) is what the
certificate search walks with Brent cycle detection.  Its symbolic form
(`phi_lift_polynomials`) evaluates each image word with
`freegroup.word_evaluate` on matrices of variables.

A matrix is stored as the four discrete logs of its entries to the primitive
element g of `FqField.log_tables`, with n = q - 1 standing for 0.  Products
of entries are sums of logs mod n, sums go through the Zech table, negation
adds log(-1) (n/2 for odd p, 0 for p = 2) and scaling a matrix subtracts one
log from its nonzero entries, so no arithmetic creates a field element.

A point of PGL2(F_q)^k is walked as a state: the k normalized log 4-tuples
that `MatTuple._key` holds.  The certificate search draws one with
`random_state` (each entry's coefficients folded by `FqField._index`) and
walks it once with `state_orbit` under `proj_step` (built once per phi and
field), which hands back the cycle's states; the verifier reads rows into
states and checks them with the same kernels, once its membership check
has refused a singular matrix: the step needs invertible states.
`find_periodic_orbit`, `pgl_dynamics_step` and `random_projpoint` are their
`ProjPoint` forms; the first two refuse a singular start.
`state_rows` is the one log -> row converter.  Back, the verifier's
structure check reads a whole trace at once: `trace_indices` range-checks
its coefficients and folds them into element indices on big-integer lanes,
and `trace_states` looks up their logs.
`Mat2` objects are built by the public `Mat2`/`pi_w` API; field elements
only at `Mat2.from_entries`, the entry properties and `Mat2.det`.
"""

from __future__ import annotations

import random
import sys
from array import array
from typing import NamedTuple

from .freegroup import FreeEndo, Word, WordError, word_evaluate
from .gf import FieldError, FqElement, FqField
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
    def from_entries(cls, field: FqField, entries) -> "Mat2":
        entries = tuple(entries)
        for x in entries:
            if x.field != field:
                raise FieldError("entries belong to a different field")
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
                raise FieldError("tuple components over different fields")
        self.field = field
        self.mats = mats
        self._key = tuple(m.logs for m in mats)

    @property
    def k(self) -> int:
        return len(self.mats)

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


def phi_lift_polynomials(phi: FreeEndo, p: int) -> PolyMap:
    """Symbolic form of the lifted map in the 4k matrix-entry coordinates.

    Variable 4*i + (2r + c) is the (r, c) entry of the i-th matrix; the
    returned map evaluated at a flattened tuple agrees with `pi_w` of each
    image word.  Each image is `freegroup.word_evaluate` on the symbolic
    matrices, with the adjugate as the inverse.
    """
    nvars = 4 * phi.rank
    mats = [tuple(MPoly.var(4 * i + j + 1, nvars, p) for j in range(4))
            for i in range(phi.rank)]

    def sym_adj(m):
        a, b, c, d = m
        return (d, -b, -c, a)

    def sym_mul(x, y):
        xa, xb, xc, xd = x
        ya, yb, yc, yd = y
        return (xa * ya + xb * yc, xa * yb + xb * yd,
                xc * ya + xd * yc, xc * yb + xd * yd)

    one, zero = MPoly.const(1, nvars, p), MPoly.zero(nvars, p)
    return PolyMap([c for w in phi.images
                    for c in word_evaluate(w, mats, sym_mul, sym_adj, (one, zero, zero, one))])


# ---------------------------------------------------------------------------
# states: a PGL2(F)^k point as the k normalized log 4-tuples of MatTuple._key

def proj_step(phi: FreeEndo, field: FqField):
    """The projective step of phi's lift on states over one field: each
    image word evaluated on the state, scaled to scalar-canonical form.

    The state must be invertible; then so is every value, as det(adj A) =
    det A and det is multiplicative, so no determinant is computed.  The
    caller matches the state's length to phi.rank.
    """
    n, zech, neg = _tables(field)
    images = tuple(w.letters for w in phi.images)

    def step(state: tuple) -> tuple:
        return tuple(_normalized(_word(letters, state, n, zech, neg), n) for letters in images)
    return step


def word_is_scalar(w: Word, field: FqField, state: tuple) -> bool:
    """Whether pi_w at the state is a scalar matrix."""
    n, zech, neg = _tables(field)
    return _is_scalar(_word(w.letters, state, n, zech, neg), n)


def state_rows(field: FqField, state: tuple) -> tuple:
    """The coefficient rows of every entry of every matrix of the state."""
    exp = field.log_tables()[0]
    return tuple(tuple(field._coeffs(exp[x]) for x in m) for m in state)


def trace_indices(coeffs: list, p: int, s: int) -> array | None:
    """The element index of each row of s coefficients laid end to end in
    coeffs, or None when a coefficient is not in range(p); p >= 2, s >= 1.

    Big-integer operations on lanes wide enough for p**s (Lamport, CACM 18,
    1975), so no coefficient takes a Python step: `bytes` reads them one to a
    byte when p <= 256, `array` otherwise, and either refuses one outside its
    lane.  Adding 2^(8w) - p to every lane carries out of the first lane that
    holds p or more, and out of none when no lane does; the sum of p^j times
    the lanes shifted j places down leaves each row's index in its first lane.
    """
    q = p**s
    code = "B" if q <= 1 << 8 else "H" if q <= 1 << 16 else "I" if q <= 1 << 32 else "Q"
    w = array(code).itemsize
    size = len(coeffs) * w
    try:
        if p <= 256:
            lanes = bytearray(size)
            lanes[::w] = bytes(coeffs)  # little-endian lanes
        else:
            lanes = array(code, coeffs)
            if sys.byteorder == "big":
                lanes.byteswap()
    except (ValueError, OverflowError):  # below 0 or too wide for the lane
        return None
    v = int.from_bytes(lanes, "little")
    ones = int.from_bytes((1).to_bytes(w, "little") * len(coeffs), "little")
    add = ones * ((1 << 8 * w) - p)
    if ((v + add) ^ v ^ add) & ones << 8 * w:  # the carries into each next lane
        return None
    index = v
    for j in range(1, s):
        index += p**j * (v >> 8 * w * j)
    out = array(code, index.to_bytes(size, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out[::s]


def trace_states(field: FqField, indices, k: int) -> list[tuple]:
    """The states of a trace given as element indices (`trace_indices`): the
    logs four to a matrix and k matrices to a state."""
    mats = zip(*[map(field.log_tables()[1].__getitem__, indices)] * 4)
    return list(zip(*[mats] * k))


def _point(field: FqField, state: tuple) -> ProjPoint:
    return ProjPoint(MatTuple(Mat2(field, m) for m in state))


def _step_for(phi: FreeEndo, h: ProjPoint):
    if phi.rank != h.tuple.k:
        raise WordError("endomorphism rank does not match tuple length")
    n, zech, neg = _tables(h.tuple.field)
    if any(_det(m, n, zech, neg) == n for m in h.tuple._key):
        raise SingularMatrixError("tuple has a singular component")
    return proj_step(phi, h.tuple.field)


def pgl_dynamics_step(phi: FreeEndo, h: ProjPoint) -> ProjPoint:
    return _point(h.tuple.field, _step_for(phi, h)(h.tuple._key))


class OrbitResult(NamedTuple):
    found: bool
    point: ProjPoint | tuple | None  # a state from state_orbit
    period: int
    steps: int
    reason: str = ""


DEFAULT_ORBIT_BUDGET = 10**7
MAX_PERIOD = 4096  # longest cycle a walk holds: the search's longest certificate


def state_orbit(kernel, h0: tuple, budget: int = DEFAULT_ORBIT_BUDGET,
                cycle: list | None = None) -> OrbitResult:
    """Brent cycle detection on states under kernel, a `proj_step`.

    The hare keeps the states it passes after the tortoise's last jump, at
    most MAX_PERIOD, so they are the cycle when the two meet; one walk from
    h0 into them finds the first cycle state.  Returns it with the exact
    minimal period, and fills cycle, if given, with the cycle from it on.
    h0 must be invertible.  Not-found has reason "budget" when the budget of
    kernel steps runs out, and "period" when the period exceeds MAX_PERIOD.
    """
    steps = 0

    def step(x: tuple) -> tuple:
        nonlocal steps
        steps += 1
        if steps > budget:
            raise _BudgetExhausted
        return kernel(x)

    try:
        power = lam = 1
        tortoise, hare = h0, step(h0)
        kept = [hare]
        while tortoise != hare:
            if power == lam:
                tortoise, power, lam = hare, power * 2, 0
                kept.clear()
            hare = step(hare)
            lam += 1
            if lam <= MAX_PERIOD:
                kept.append(hare)
        if lam > MAX_PERIOD:
            return OrbitResult(False, None, 0, steps, reason="period")
        index = {x: i for i, x in enumerate(kept)}
        first = h0
        while first not in index:
            first = step(first)
        if cycle is not None:
            cycle[:] = kept[index[first]:] + kept[:index[first]]
        return OrbitResult(True, first, lam, steps)
    except _BudgetExhausted:
        return OrbitResult(False, None, 0, steps, reason="budget")


class _BudgetExhausted(Exception):
    pass


def find_periodic_orbit(phi: FreeEndo, h0: ProjPoint,
                        budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitResult:
    """`state_orbit` from h0, with the point on the cycle as a ProjPoint;
    raises SingularMatrixError before any step when h0 is not invertible."""
    result = state_orbit(_step_for(phi, h0), h0.tuple._key, budget)
    return result._replace(point=_point(h0.tuple.field, result.point)) if result.found else result


def random_state(field: FqField, k: int, rng: random.Random) -> tuple:
    """k matrices drawn coefficient by coefficient, each redrawn until invertible."""
    n, zech, neg = _tables(field)
    log = field.log_tables()[1]
    p, m, draw = field.p, field.m, rng.randrange

    def entry() -> int:
        return log[field._index([draw(p) for _ in range(m)])]

    state = []
    for _ in range(k):
        while True:
            x = (entry(), entry(), entry(), entry())
            if _det(x, n, zech, neg) != n:
                break
        state.append(_normalized(x, n))
    return tuple(state)


def random_projpoint(field: FqField, k: int, rng: random.Random) -> ProjPoint:
    return _point(field, random_state(field, k, rng))
