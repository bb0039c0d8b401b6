"""Quasi-fixed points of polynomial self-maps of affine space over F_p.

A point a over an extension F_{p^s} is quasi-fixed when the map sends it to
a Frobenius power of itself: f_i(a) = a_i^(p^m) for all i.  Over F_{p^s}
only m in 1..s matters (Frobenius powers repeat with period s), and a point
living in a proper subfield is reported at its minimal field degree with
its minimal valid m, so every witness appears exactly once in a
deterministic order: ascending (field degree, m, point coordinates).

The maps have coefficients in F_p, so f commutes with Frobenius: when
f(a) = Frob^m(a), every conjugate b = Frob^j(a) has f(b) = Frob^m(b) with
the same m and the same least field F_{p^s}, and the s conjugates are
distinct (Frob^j fixes a only when s divides j).  So the search scans one
point of each Frobenius orbit of the points of exact degree s, a closed
point of A^n, and reports all s conjugates of each one it finds.

It scans these candidates CHUNK at a time as columns, one list of
discrete logs per coordinate: f_1 is evaluated over the whole chunk with
one list comprehension per term in at most two variables, each term after
the first formed inside the comprehension that adds it to the sum, the
points where it fails are dropped from every column, and f_2, ..., f_n run
on the rest.  So the interpreted work per point is a few comprehension
steps, and the scan's memory is bounded by the chunk, not by the number of
points.  The same kernel tests the survivors against a variety and an
avoided polynomial (`density`).

What a degree's scan returns is one int per witness (`scan_quasi_fixed`):
its m and the digit-reversed index of each coordinate of each conjugate,
packed so that sorting the ints gives the order above.  The command line
writes its output straight from these keys; only the library's
`enumerate_quasi_fixed` and `find_quasi_fixed_avoiding` turn them into
`QuasiFixedWitness` records.
"""

from __future__ import annotations

import itertools
from array import array
from functools import cache
from math import gcd, lcm
from typing import Iterator, NamedTuple, Sequence

from .gf import DEFAULT_ORDER_CAP, FqElement, FqField, _digits, field_create, power_within
from .poly import MPoly, PolyError, PolyMap, _log_eval_column, parse_poly

DEFAULT_POINT_CAP = 2**20
# candidate points scanned at once, one list of logs per coordinate: this bounds
# the scan's memory however many points a field degree has
CHUNK = 4096


class EnumerationCapExceeded(RuntimeError):
    """The requested search would enumerate more points than allowed."""


class QuasiFixedWitness(NamedTuple):
    """A point with f_i(a) = a_i^(p^m), tagged with its field degree."""

    point: tuple[FqElement, ...]
    m: int
    field_degree: int

    def to_dict(self) -> dict:
        return {"p": self.point[0].field.p, "s": self.field_degree, "m": self.m,
                "point": [list(a.coeffs) for a in self.point]}


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


def _orbit_representatives(by_degree: dict[int, array],
                            degs: tuple[int, ...]) -> list[array]:
    """Per coordinate, the logs it takes in one point of each Frobenius orbit.

    Coordinate i has degree d_i, and the Frobenius powers fixing the
    coordinates before it are those of Frob^L, L = lcm(d_1, ..., d_(i-1)).
    Frob^L moves block j of by_degree[d_i] (`FqField.frobenius_tables`) to
    block j + L mod d_i, so its first gcd(L, d_i) blocks meet each orbit
    once.  So the product of these columns holds exactly one conjugate of
    each point of the pattern.
    """
    cols, stab = [], 1
    for d in degs:
        xs = by_degree[d]
        cols.append(xs[:gcd(stab, d) * len(xs) // d])
        stab = lcm(stab, d)
    return cols


def check_degree_caps(pmap: PolyMap, s: int) -> None:
    """Refuse field degree s when F_{p^s} or its points of A^n pass a cap."""
    p, nv = pmap.p, pmap.nvars
    if not power_within(p, s, DEFAULT_ORDER_CAP):
        raise EnumerationCapExceeded(f"field order {p}^{s} exceeds cap {DEFAULT_ORDER_CAP}")
    if not power_within(p, s * nv, DEFAULT_POINT_CAP):
        raise EnumerationCapExceeded(
            f"enumerating {p}^{s * nv} points exceeds cap {DEFAULT_POINT_CAP}")


@cache
def _reversed_index(p: int, s: int) -> tuple[int, Sequence[int], Sequence[int]]:
    """(P, low, high): the element of F_{p^s} with index i = lo + P * hi,
    lo < P, has digit-reversed index low[lo] + high[hi].

    That index, sum c_j p^(s-1-j), reads the coefficient tuple with c_0 most
    significant, so it orders elements as their coefficient tuples do.  P is
    p^(s // 2), so the lists hold p^(s // 2) and p^(s - s // 2) entries: at
    most 2^15 within the point cap (p^s <= 2^20; one digit is a `range`).
    """
    def reversed_k(k):  # x < p^k -> its k base-p digits read the other way
        if k == 1:
            return range(p)
        rev = [0]
        for _ in range(k):  # x = d p^(k-1) + y reverses to d + p * (y reversed)
            rev = [d + p * r for d in range(p) for r in rev]
        return rev
    h = s // 2
    return p**h, [r * p**(s - h) for r in reversed_k(h)], reversed_k(s - h)


def scan_quasi_fixed(pmap: PolyMap, s_max: int, variety: VarietySpec = VarietySpec(),
                     avoid: MPoly | None = None) -> Iterator[tuple[FqField, array]]:
    """(F_{p^s}, keys) for s = 1..s_max: the witnesses of least field F_{p^s},
    one int key each, in ascending (m, coordinate) order.

    The key of a witness with least m and coordinates of digit-reversed
    indices r_1, ..., r_n (`_reversed_index`) is ((m q + r_1) q + ...) q + r_n,
    q = p^s, so plain int order is the order of (m, the coefficient tuples c_0
    first); `witness_coeffs` reads one back.  With a variety or `avoid`, only
    the witnesses on the variety where `avoid` does not vanish are kept.
    Those polynomials have F_p coefficients, so their zero sets are Frobenius
    stable: each closed point is tested once, on the point the scan visits.

    The search runs on logarithms to a primitive element (`log_tables`):
    f(a) is a Zech-logarithm sum, a^(p^m) is log(a) * p^m, and the field's
    `frobenius_tables` give each log's Frobenius orbit and the logs of each
    subfield degree.  Of the points of degree s, with coordinate degrees
    (d_1, ..., d_n), it scans one per Frobenius orbit: coordinate i takes the
    first gcd(L, d_i) blocks of by_degree[d_i], L = lcm(d_1, ..., d_(i-1)),
    which picks one point of each orbit of the stabiliser <Frob^L> of the
    coordinates before it.
    That is exact because f has F_p coefficients: the cyclic group of order
    s acts freely on the points of degree s and f(Frob^j a) = Frob^m(Frob^j a)
    with the same m, so each witness found is expanded to its s conjugates
    (log x -> x * p^j mod q - 1, the log of 0 unchanged) before the sort.
    The candidates are taken CHUNK at a time and filtered coordinate by
    coordinate (see the module docstring), so the memory a scan holds beyond
    the field's tables and the keys of one degree does not grow with the
    number of candidates.  Each degree is scanned only when the iterator
    reaches it.
    """
    if s_max < 1:
        raise PolyError(f"largest field degree must be >= 1, got {s_max}")
    nv, p = pmap.nvars, pmap.p
    tests = [(f, True) for f in variety.polys] + ([(avoid, False)] if avoid is not None else [])
    for f, _ in tests:
        if f.nvars != nv or f.p != p:
            raise PolyError(f"variety and avoided polynomials must be in {nv} variables "
                            f"over F_{p}, like the map")
    for s in range(1, s_max + 1):
        check_degree_caps(pmap, s)
        field = field_create(p, s)
        exp, log, zech = field.log_tables()
        orbit, by_degree = field.frobenius_tables()
        q = field.order
        n = q - 1
        low_size, low, high = _reversed_index(p, s)
        coords = [[(log[c], e) for e, c in f.terms.items()] for f in pmap.coords]
        filters = [([(log[c], e) for e, c in f.terms.items()], zero) for f, zero in tests]
        keys: list[int] = []
        # one point of each Frobenius orbit of the points whose least field of
        # definition is F_{p^s}, degree pattern by pattern
        points = itertools.chain.from_iterable(
            itertools.product(*_orbit_representatives(by_degree, degs))
            for degs in itertools.product(by_degree, repeat=nv) if lcm(*degs) == s)
        while chunk := list(itertools.islice(points, CHUNK)):
            # cols: the logs of each coordinate, then log f_i(a) for each i checked;
            # f_i(a) = a_i^(p^m) puts f_i(a) in the Frobenius orbit of a_i
            cols = list(zip(*chunk))
            for i, terms in enumerate(coords):
                values = _log_eval_column(terms, cols, zech, n)
                keep = [orbit[v] == orbit[x] for v, x in zip(values, cols[i])]
                cols = [list(itertools.compress(col, keep)) for col in (*cols, values)]
            if not cols[0]:
                continue
            # the least m with f_i(a) = a_i^(p^m) for every i, 0 for none; the
            # log n of 0 is fixed by every Frobenius power
            ms = [next((m for m in range(1, s + 1)
                        if all(v == (x if x == n else x * p**m % n)
                               for x, v in zip(row, row[nv:]))), 0)
                  for row in zip(*cols)]
            keep = [m > 0 for m in ms]
            for terms, zero in filters:
                keep = [k and (v == n) == zero
                        for k, v in zip(keep, _log_eval_column(terms, cols, zech, n))]
            ms = list(itertools.compress(ms, keep))
            cols = [list(itertools.compress(col, keep)) for col in cols[:nv]]
            # f commutes with Frobenius, so the s conjugates Frob^j(a) are the
            # witnesses of a's orbit, all with the same m
            for j in range(s if ms else 0):
                pj, key = p**j, ms
                for col in cols:
                    key = [k * q + low[(e := exp[x if x == n else x * pj % n]) % low_size]
                           + high[e // low_size] for k, x in zip(key, col)]
                keys += key
        keys.sort()
        yield field, array("q", keys)


def witness_coeffs(key: int, p: int, s: int, nvars: int) -> tuple[int, list[tuple[int, ...]]]:
    """(m, the coefficient tuple of each coordinate) of a `scan_quasi_fixed` key."""
    q, coeffs = p**s, []
    for _ in range(nvars):
        key, r = divmod(key, q)
        coeffs.append(_digits(r, p, s)[::-1])
    return key, coeffs[::-1]


def _witness(field: FqField, nvars: int, key: int) -> QuasiFixedWitness:
    m, coeffs = witness_coeffs(key, field.p, field.m, nvars)
    return QuasiFixedWitness(tuple(FqElement(field, c) for c in coeffs), m, field.m)


def enumerate_quasi_fixed(pmap: PolyMap, s_max: int) -> Iterator[QuasiFixedWitness]:
    """All quasi-fixed witnesses with field degree <= s_max, each once.

    Witnesses stream in ascending (s, m, coordinate) order, read off the keys
    of `scan_quasi_fixed`.  A point is attributed to its minimal field degree
    and carries its minimal valid m.  Each degree is scanned only when the
    iterator reaches it.
    """
    for field, keys in scan_quasi_fixed(pmap, s_max):
        for key in keys:
            yield _witness(field, pmap.nvars, key)


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
                              s_max: int) -> QuasiFixedWitness | None:
    """First witness on v where w_spec does not vanish, else None.

    Quasi-fixed points are dense in the stable image closure, so a witness
    exists at some field degree; a persistent None at generous budgets
    points at bad inputs rather than at a missing witness.
    """
    for field, keys in scan_quasi_fixed(pmap, s_max, v, w_spec):
        if keys:
            return _witness(field, pmap.nvars, keys[0])
    return None
