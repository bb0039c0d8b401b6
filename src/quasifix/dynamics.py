"""Quasi-fixed points of polynomial self-maps of affine space over F_p.

A point a over an extension F_{p^s} is quasi-fixed when the map sends it to
a Frobenius power of itself: f_i(a) = a_i^(p^m) for all i.  Over F_{p^s}
only m in 1..s matters (Frobenius powers repeat with period s), and a point
living in a proper subfield is reported at its minimal field degree with
its minimal valid m, so every witness appears exactly once in a
deterministic order: ascending (field degree, m, point coordinates).
"""

from __future__ import annotations

import itertools
from array import array
from math import lcm
from typing import Iterator, NamedTuple, Sequence

from .gf import DEFAULT_ORDER_CAP, FqElement, FqField, field_create
from .poly import MPoly, PolyError, PolyMap, parse_poly

DEFAULT_POINT_CAP = 2**20


class EnumerationCapExceeded(RuntimeError):
    """The requested search would enumerate more points than allowed."""


class QuasiFixedWitness(NamedTuple):
    """A point with f_i(a) = a_i^(p^m), tagged with its field degree."""

    point: tuple[FqElement, ...]
    m: int
    field_degree: int

    def verify(self, pmap: PolyMap) -> bool:
        """Re-check the defining identity by direct evaluation."""
        return all(f.evaluate(self.point) == a.frobenius(self.m)
                   for f, a in zip(pmap.coords, self.point))

    def coeff_vectors(self) -> list[list[int]]:
        return [list(a.coeffs) for a in self.point]

    def to_dict(self) -> dict:
        return {"p": self.point[0].field.p, "s": self.field_degree, "m": self.m,
                "point": self.coeff_vectors()}


class VarietySpec(NamedTuple):
    """Closed subset cut out by explicit polynomials; empty means all of A^n."""

    polys: tuple[MPoly, ...] = ()

    @classmethod
    def parse(cls, texts: Sequence[str], nvars: int, p: int) -> "VarietySpec":
        return cls(tuple(parse_poly(t, nvars, p) for t in texts))

    def membership(self, point: Sequence[FqElement]) -> bool:
        if self.polys and len(point) != self.polys[0].nvars:
            raise PolyError(f"point has {len(point)} coordinates, variety expects "
                            f"{self.polys[0].nvars}")
        return all(f.evaluate(point).is_zero() for f in self.polys)


def _log_eval(terms: list[tuple[int, tuple[int, ...]]], point: tuple[int, ...],
              zech: array, n: int) -> int:
    """log f(a) from (log c, exponents) terms and the logs of a's coordinates.

    Logs live mod n = q - 1 and n itself stands for 0, as in `log_tables`.
    """
    acc = n
    for c, expo in terms:
        term = c
        for e, x in zip(expo, point):
            if e:
                if x == n:
                    break
                term += e * x
        else:
            term %= n
            if acc == n:
                acc = term
            else:
                z = zech[(term - acc) % n]
                acc = n if z == n else (acc + z) % n
    return acc


def _frobenius_orbits(p: int, n: int, degree: bytearray) -> tuple[array, bytearray]:
    """orbit[x], pos[x] with x = orbit[x] * p^pos[x] mod n for nonzero logs x.

    orbit[x] is the least log in the Frobenius orbit of x, whose size is
    degree[x]; so g^v is a Frobenius power of g^x iff orbit[v] == orbit[x].
    """
    orbit = array("q", [-1]) * n
    pos = bytearray(n)
    for x in range(n):
        if orbit[x] < 0:
            y = x
            for j in range(degree[x]):
                orbit[y], pos[y] = x, j
                y = y * p % n
    return orbit, pos


def check_degree_caps(pmap: PolyMap, s: int, order_cap: int) -> None:
    """Refuse field degree s when F_{p^s} or its points of A^n pass a cap."""
    p, nv = pmap.p, pmap.nvars
    if p**s > order_cap:
        raise EnumerationCapExceeded(f"field order {p}^{s} exceeds cap {order_cap}")
    if p ** (s * nv) > DEFAULT_POINT_CAP:
        raise EnumerationCapExceeded(
            f"enumerating {p}^{s * nv} points exceeds cap {DEFAULT_POINT_CAP}")


def enumerate_quasi_fixed(pmap: PolyMap, s_max: int,
                          order_cap: int = DEFAULT_ORDER_CAP) -> Iterator[QuasiFixedWitness]:
    """All quasi-fixed witnesses with field degree <= s_max, each once.

    Witnesses stream in ascending (s, m, coordinate) order.  A point is
    attributed to its minimal field degree and carries its minimal valid m.
    The search runs on logarithms to a primitive element (`log_tables`):
    f(a) is a Zech-logarithm sum, a^(p^m) is log(a) * p^m, and a lies in
    F_{p^d} iff (q - 1) / (p^d - 1) divides log(a).
    """
    if s_max < 1:
        raise PolyError(f"largest field degree must be >= 1, got {s_max}")
    nv, p = pmap.nvars, pmap.p
    for s in range(1, s_max + 1):
        check_degree_caps(pmap, s, order_cap)
        field = field_create(p, s, order_cap)
        exp, log, zech = field.log_tables()
        n = field.order - 1
        coords = [[(log[c], e) for e, c in f.terms.items()] for f in pmap.coords]
        divisors = [d for d in range(1, s + 1) if s % d == 0]
        # degree[x]: least d | s with g^x in F_{p^d}; smaller d overwrite larger
        degree = bytearray([s]) * (n + 1)
        for d in reversed(divisors[:-1]):
            degree[::n // (p**d - 1)] = bytes([d]) * p**d
        by_degree = {d: [x for x in range(n + 1) if degree[x] == d] for d in divisors}
        orbit, pos = _frobenius_orbits(p, n, degree)
        found: list[tuple[int, tuple[tuple[int, ...], ...], QuasiFixedWitness]] = []
        for degs in itertools.product(divisors, repeat=nv):
            if lcm(*degs) != s:
                continue
            for point in itertools.product(*(by_degree[d] for d in degs)):
                # f_i(a) = a_i^(p^m) fixes m modulo the degree of each nonzero a_i
                residues = []
                for x, terms in zip(point, coords):
                    v = _log_eval(terms, point, zech, n)
                    if x == n or v == n:
                        if x != v:
                            break
                    elif orbit[x] != orbit[v]:
                        break
                    else:
                        residues.append((pos[v] - pos[x], degree[x]))
                else:
                    m = next((m for m in range(1, s + 1)
                              if all((m - r) % d == 0 for r, d in residues)), None)
                    if m is not None:
                        witness = QuasiFixedWitness(
                            tuple(field.from_int(exp[x]) for x in point), m, s)
                        found.append((m, tuple(a.coeffs for a in witness.point), witness))
        found.sort(key=lambda item: (item[0], item[1]))
        for _, _, witness in found:
            yield witness


class ContainmentReport:
    """Outcome of checking every witness against a claimed containing variety."""

    def __init__(self) -> None:
        self.checked = 0
        self.violations: list[QuasiFixedWitness] = []

    @property
    def ok(self) -> bool:
        return not self.violations


def containment_check(pmap: PolyMap, v: VarietySpec, s_max: int) -> ContainmentReport:
    """Assert every quasi-fixed witness lies on v; violations mean v is wrong."""
    report = ContainmentReport()
    for witness in enumerate_quasi_fixed(pmap, s_max):
        report.checked += 1
        if not v.membership(witness.point):
            report.violations.append(witness)
    return report


def find_quasi_fixed_avoiding(pmap: PolyMap, v: VarietySpec, w_spec: MPoly,
                              s_max: int,
                              order_cap: int = DEFAULT_ORDER_CAP) -> QuasiFixedWitness | None:
    """First witness on v where w_spec does not vanish, else None.

    Quasi-fixed points are dense in the stable image closure, so a witness
    exists at some field degree; a persistent None at generous budgets
    points at bad inputs rather than at a missing witness.
    """
    for witness in enumerate_quasi_fixed(pmap, s_max, order_cap):
        if v.membership(witness.point) and not w_spec.evaluate(witness.point).is_zero():
            return witness
    return None


def image_point_sample(pmap: PolyMap, iterations: int,
                       field: FqField) -> frozenset[tuple[FqElement, ...]]:
    """Exact image set of the rational points under the iterated map.

    This samples the image chain at the level of rational points; it is a
    subset of (not a substitute for) the closure, useful for falsifying a
    wrongly supplied variety.
    """
    if field.p != pmap.p:
        raise PolyError("field characteristic does not match the map")
    n = pmap.nvars
    if field.order**n > DEFAULT_POINT_CAP:
        raise EnumerationCapExceeded(
            f"enumerating {field.order}^{n} points exceeds cap {DEFAULT_POINT_CAP}")
    current: set[tuple[FqElement, ...]] = set(
        itertools.product(list(field), repeat=n))
    for _ in range(iterations):
        current = {pmap.apply(pt) for pt in current}
    return frozenset(current)
