"""2x2 matrices over F_{p^m} and the induced dynamics on matrix tuples.

A word w in k letters acts on k-tuples of matrices by substituting the
adjugate for each inverse letter; on determinant-1 tuples this agrees with
honest word evaluation, and it is polynomial on the whole matrix space.
An endomorphism of the free group therefore lifts to a polynomial self-map
of k-tuples, whose projective dynamics (matrices up to scalars) is what the
certificate search walks with Brent cycle detection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .freegroup import FreeEndo, Word, WordError
from .gf import FqElement, FqField
from .poly import MPoly, PolyMap


class SingularMatrixError(ValueError):
    """A projective operation met a non-invertible matrix."""


class Mat2:
    """2x2 matrix with entries in one finite field; immutable."""

    __slots__ = ("field", "a", "b", "c", "d", "_key")

    def __init__(self, field: FqField, a: FqElement, b: FqElement,
                 c: FqElement, d: FqElement):
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d
        self._key = (a.coeffs, b.coeffs, c.coeffs, d.coeffs)

    @classmethod
    def identity(cls, field: FqField) -> "Mat2":
        one, zero = field.one(), field.zero()
        return cls(field, one, zero, zero, one)

    @classmethod
    def from_entries(cls, field: FqField, entries) -> "Mat2":
        a, b, c, d = entries
        for x in (a, b, c, d):
            if x.field != field:
                raise SingularMatrixError("entries belong to a different field")
        return cls(field, a, b, c, d)

    def __mul__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.field,
                    self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                    self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def adj(self) -> "Mat2":
        return Mat2(self.field, self.d, -self.b, -self.c, self.a)

    def det(self) -> FqElement:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "Mat2":
        det = self.det()
        if det.is_zero():
            raise SingularMatrixError("matrix is singular")
        inv = det.inv()
        adj = self.adj()
        return Mat2(self.field, adj.a * inv, adj.b * inv, adj.c * inv, adj.d * inv)

    def scale(self, s: FqElement) -> "Mat2":
        return Mat2(self.field, self.a * s, self.b * s, self.c * s, self.d * s)

    def is_scalar(self) -> bool:
        return self.b.is_zero() and self.c.is_zero() and self.a == self.d

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in (self.a, self.b, self.c, self.d))

    def frobenius(self, e: int) -> "Mat2":
        return Mat2(self.field, self.a.frobenius(e), self.b.frobenius(e),
                    self.c.frobenius(e), self.d.frobenius(e))

    def normalized(self) -> "Mat2":
        """Scale so the first nonzero entry in row-major order is 1."""
        for x in (self.a, self.b, self.c, self.d):
            if not x.is_zero():
                return self.scale(x.inv())
        raise SingularMatrixError("cannot normalize the zero matrix")

    def entries(self) -> tuple[FqElement, FqElement, FqElement, FqElement]:
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Mat2) and self.field == other.field
                and self._key == other._key)

    def __hash__(self) -> int:
        return hash(self._key)

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
        self._key = tuple(m._key for m in mats)

    @property
    def k(self) -> int:
        return len(self.mats)

    def frobenius(self, e: int) -> "MatTuple":
        return MatTuple(tuple(m.frobenius(e) for m in self.mats))

    def __getitem__(self, i: int) -> Mat2:
        return self.mats[i]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MatTuple) and self.field == other.field
                and self._key == other._key)

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
    acc = Mat2.identity(t.field)
    for x in w.letters:
        acc = acc * (t.mats[x - 1] if x > 0 else t.mats[-x - 1].adj())
    return acc


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
    normalized = []
    for m in t.mats:
        if m.det().is_zero():
            raise SingularMatrixError("tuple has a singular component")
        normalized.append(m.normalized())
    return ProjPoint(MatTuple(tuple(normalized)))


def pgl_dynamics_step(phi: FreeEndo, h: ProjPoint) -> ProjPoint:
    return proj_normalize(phi_lift(phi, h.tuple))


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
    runs out or the orbit leaves the invertible locus.
    """
    steps = 0

    def step(x: ProjPoint) -> ProjPoint:
        nonlocal steps
        steps += 1
        if steps > budget:
            raise _BudgetExhausted
        return pgl_dynamics_step(phi, x)

    try:
        power = lam = 1
        tortoise = h0
        hare = step(h0)
        while tortoise != hare:
            if power == lam:
                tortoise = hare
                power *= 2
                lam = 0
            hare = step(hare)
            lam += 1
        # advance a second pointer lam steps, then walk both to the cycle
        tortoise = hare = h0
        for _ in range(lam):
            hare = step(hare)
        while tortoise != hare:
            tortoise = step(tortoise)
            hare = step(hare)
        return OrbitResult(True, tortoise, lam, steps)
    except _BudgetExhausted:
        return OrbitResult(False, None, 0, steps, reason="budget")
    except SingularMatrixError:
        return OrbitResult(False, None, 0, steps, reason="singular")


class _BudgetExhausted(Exception):
    pass


def random_invertible_mat(field: FqField, rng: random.Random) -> Mat2:
    while True:
        entries = [field.element([rng.randrange(field.p) for _ in range(field.m)])
                   for _ in range(4)]
        m = Mat2.from_entries(field, entries)
        if not m.det().is_zero():
            return m


def random_projpoint(field: FqField, k: int, rng: random.Random) -> ProjPoint:
    return proj_normalize(MatTuple(tuple(random_invertible_mat(field, rng)
                                         for _ in range(k))))
