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
from dataclasses import dataclass, field as dc_field
from math import lcm
from typing import Iterator, Sequence

from .gf import DEFAULT_ORDER_CAP, FqElement, FqField, field_create
from .poly import MPoly, PolyError, PolyMap, parse_poly

DEFAULT_POINT_CAP = 2**20


class EnumerationCapExceeded(RuntimeError):
    """The requested search would enumerate more points than allowed."""


@dataclass(frozen=True)
class QuasiFixedWitness:
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


@dataclass(frozen=True)
class VarietySpec:
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


def _frobenius_table(field: FqField) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """coeffs -> [a^(p^1), ..., a^(p^s)] as coefficient keys."""
    table = {}
    for a in field:
        row = []
        cur = a
        for _ in range(field.m):
            cur = cur.frobenius(1)
            row.append(cur.coeffs)
        table[a.coeffs] = row
    return table


def enumerate_quasi_fixed(pmap: PolyMap, s_max: int,
                          order_cap: int = DEFAULT_ORDER_CAP,
                          point_cap: int = DEFAULT_POINT_CAP) -> Iterator[QuasiFixedWitness]:
    """All quasi-fixed witnesses with field degree <= s_max, each once.

    Witnesses stream in ascending (s, m, coordinate) order.  A point is
    attributed to its minimal field degree and carries its minimal valid m.
    """
    n, p = pmap.nvars, pmap.p
    for s in range(1, s_max + 1):
        if p**s > order_cap:
            raise EnumerationCapExceeded(f"field order {p}^{s} exceeds cap {order_cap}")
        if p ** (s * n) > point_cap:
            raise EnumerationCapExceeded(
                f"enumerating {p}^{s * n} points exceeds cap {point_cap}")
        field = field_create(p, s, order_cap)
        frob = _frobenius_table(field)
        # least d | s with a^(p^d) = a, read off the row just built
        mindeg = {key: next(d for d in range(1, s + 1) if s % d == 0 and row[d - 1] == key)
                  for key, row in frob.items()}
        elems = list(field)
        found: list[tuple[int, tuple[tuple[int, ...], ...], QuasiFixedWitness]] = []
        for point in itertools.product(elems, repeat=n):
            if lcm(*(mindeg[a.coeffs] for a in point)) != s:
                continue
            values = pmap.apply(point)
            for m in range(1, s + 1):
                if all(v.coeffs == frob[a.coeffs][m - 1]
                       for v, a in zip(values, point)):
                    key = tuple(a.coeffs for a in point)
                    found.append((m, key, QuasiFixedWitness(tuple(point), m, s)))
                    break
        found.sort(key=lambda item: (item[0], item[1]))
        for _, _, witness in found:
            yield witness


@dataclass
class ContainmentReport:
    """Outcome of checking every witness against a claimed containing variety."""

    checked: int = 0
    violations: list[QuasiFixedWitness] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def containment_check(pmap: PolyMap, v: VarietySpec, s_max: int,
                      order_cap: int = DEFAULT_ORDER_CAP,
                      point_cap: int = DEFAULT_POINT_CAP) -> ContainmentReport:
    """Assert every quasi-fixed witness lies on v; violations mean v is wrong."""
    report = ContainmentReport()
    for witness in enumerate_quasi_fixed(pmap, s_max, order_cap, point_cap):
        report.checked += 1
        if not v.membership(witness.point):
            report.violations.append(witness)
    return report


def find_quasi_fixed_avoiding(pmap: PolyMap, v: VarietySpec, w_spec: MPoly,
                              s_max: int,
                              order_cap: int = DEFAULT_ORDER_CAP,
                              point_cap: int = DEFAULT_POINT_CAP) -> QuasiFixedWitness | None:
    """First witness on v where w_spec does not vanish, else None.

    Quasi-fixed points are dense in the stable image closure, so a witness
    exists at some field degree; a persistent None at generous budgets
    points at bad inputs rather than at a missing witness.
    """
    for witness in enumerate_quasi_fixed(pmap, s_max, order_cap, point_cap):
        if v.membership(witness.point) and not w_spec.evaluate(witness.point).is_zero():
            return witness
    return None


def image_point_sample(pmap: PolyMap, iterations: int, field: FqField,
                       point_cap: int = DEFAULT_POINT_CAP) -> frozenset[tuple[FqElement, ...]]:
    """Exact image set of the rational points under the iterated map.

    This samples the image chain at the level of rational points; it is a
    subset of (not a substitute for) the closure, useful for falsifying a
    wrongly supplied variety.
    """
    if field.p != pmap.p:
        raise PolyError("field characteristic does not match the map")
    n = pmap.nvars
    if field.order**n > point_cap:
        raise EnumerationCapExceeded(
            f"enumerating {field.order}^{n} points exceeds cap {point_cap}")
    current: set[tuple[FqElement, ...]] = set(
        itertools.product(list(field), repeat=n))
    for _ in range(iterations):
        current = {pmap.apply(pt) for pt in current}
    return frozenset(current)
