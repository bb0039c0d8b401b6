"""Multivariate polynomials over a prime field F_p.

Polynomials are sparse term maps from exponent vectors to nonzero residues,
kept canonical so equal polynomials compare equal.  Besides ring arithmetic
this module provides evaluation at extension-field points, symbolic
composition of coordinate maps, and the confluent rewriting system
x_i^Q -> f_i that computes normal forms modulo the ideal generated by
f_i - x_i^Q.  The leading monomials x_i^Q are pairwise coprime, so when Q
exceeds every deg f_i the rewriting terminates and the normal form is
unique regardless of strategy; `IqSystem` drives it from a heap of
reducible monomials, greatest total degree first.

Evaluation runs on the point field's log tables: `_log_eval_column` gives
log f(a) for a column of points, products as sums of logs and sums through
the Zech table (Huber, IEEE Trans. IT 36, 1990), over chunks of candidates
in enumeration and over one point in `MPoly.evaluate`.  Each term after the
first is formed inside the comprehension that adds it to the sum, so a term
in at most two variables costs one interpreted pass over the column.

`IqSystem` computes in the quotient A = F_p[x]/(x_i^Q - f_i), whose
elements are the reduced polynomials (every exponent < Q).  Every product
is reduced as soon as it is formed, and a product of two reduced
polynomials has at most (2Q - 1)^n terms: the iterate f^(j)_i is reached
by j compositions in A rather than written out at degree (deg f)^j, and
x_i^(Q^j) by k rounds of p-th powers for Q = p^k, which multiply nothing
over F_p: (sum c x^e)^p = sum c x^(p e).  Inside, each exponent vector is
packed into one int, a field per variable as wide as the largest total
degree reached plus a guard bit; rewrites only lower the total degree, so
no exponent outgrows its field and a monomial product is one add (Monagan
and Pearce, CASC 2007).
"""

from __future__ import annotations

import re
from array import array
from heapq import heapify, heappop, heappush
from operator import lshift
from typing import Sequence

from .gf import FqElement, is_prime

DEFAULT_TERM_BUDGET = 10**6


class PolyError(ValueError):
    """Arity, characteristic, or system shape violation."""


class PolyParseError(ValueError):
    """Malformed polynomial text."""


class TermBudgetExceeded(RuntimeError):
    """A symbolic computation grew past the configured term limit."""


class MPoly:
    """Sparse polynomial in F_p[x_1..x_n]; immutable once constructed."""

    __slots__ = ("nvars", "p", "terms")

    def __init__(self, nvars: int, p: int, terms: dict[tuple[int, ...], int]):
        self.nvars = nvars
        self.p = p
        self.terms = {e: c % p for e, c in terms.items() if c % p}

    # -- constructors

    @classmethod
    def zero(cls, nvars: int, p: int) -> "MPoly":
        return cls(nvars, p, {})

    @classmethod
    def const(cls, c: int, nvars: int, p: int) -> "MPoly":
        return cls(nvars, p, {(0,) * nvars: c})

    @classmethod
    def var(cls, index: int, nvars: int, p: int) -> "MPoly":
        """The variable x_index, 1-based."""
        if not 1 <= index <= nvars:
            raise PolyError(f"variable index {index} out of range 1..{nvars}")
        expo = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, p, {expo: 1})

    # -- ring structure

    def _check(self, other: "MPoly") -> None:
        if self.nvars != other.nvars or self.p != other.p:
            raise PolyError("operands live in different polynomial rings")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MPoly(self.nvars, self.p, terms)

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, self.p, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        if len(self.terms) * len(other.terms) > DEFAULT_TERM_BUDGET:
            raise TermBudgetExceeded(
                f"product of {len(self.terms)} x {len(other.terms)} terms over budget")
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MPoly(self.nvars, self.p, terms)

    def __pow__(self, e: int) -> "MPoly":
        if e < 0:
            raise PolyError("negative polynomial power")
        result = MPoly.const(1, self.nvars, self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MPoly) and self.nvars == other.nvars
                and self.p == other.p and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.nvars, self.p, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MPoly({self.to_text()!r}, nvars={self.nvars}, p={self.p})"

    # -- evaluation and substitution

    def evaluate(self, point: Sequence[FqElement]) -> FqElement:
        """Exact value at a point over an extension of F_p, computed on the
        point field's log tables (`_log_eval_column`), which the field builds
        on first use and refuses past `gf.DEFAULT_ORDER_CAP`."""
        if len(point) != self.nvars:
            raise PolyError(f"point has {len(point)} coordinates, expected {self.nvars}")
        field = point[0].field
        if field.p != self.p:
            raise PolyError(f"point characteristic {field.p} != coefficient characteristic {self.p}")
        for a in point:
            if a.field != field:
                raise PolyError("point coordinates belong to different fields")
        exp, log, zech = field.log_tables()
        terms = [(log[c], e) for e, c in self.terms.items()]
        value, = _log_eval_column(terms, [[log[a.to_int()]] for a in point], zech,
                                  field.order - 1)
        return field.from_int(exp[value])

    def substitute(self, polys: Sequence["MPoly"]) -> "MPoly":
        """self(g_1, ..., g_n) as a polynomial in the g's variables."""
        if len(polys) != self.nvars:
            raise PolyError(f"substitution needs {self.nvars} polynomials, got {len(polys)}")
        inner_nvars = polys[0].nvars
        for g in polys:
            if g.nvars != inner_nvars or g.p != self.p:
                raise PolyError("substituted polynomials live in different rings")
        power_cache: list[dict[int, MPoly]] = [dict() for _ in range(self.nvars)]

        def cached_pow(i: int, e: int) -> MPoly:
            got = power_cache[i].get(e)
            if got is None:
                got = polys[i] ** e
                power_cache[i][e] = got
            return got

        acc = MPoly.zero(inner_nvars, self.p)
        for e, c in self.terms.items():
            term = MPoly.const(c, inner_nvars, self.p)
            for i, ei in enumerate(e):
                if ei:
                    term = term * cached_pow(i, ei)
            acc = acc + term
        return acc

    # -- text form

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = [f"x{i + 1}^{ei}" if ei > 1 else f"x{i + 1}"
                       for i, ei in enumerate(e) if ei]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return "+".join(parts)


def _log_eval_column(terms: list[tuple[int, tuple[int, ...]]], cols: list,
                     zech: array, n: int) -> list[int]:
    """[log f(a) for a in a chunk] from f's (log c, exponents) terms.

    cols[j] holds the logs of coordinate j of every point of the chunk; logs
    live mod n = q - 1 and n itself stands for 0, as in `log_tables`.  The
    first term is formed in one pass over the chunk for its first two
    variables and one more for each further variable.  Every later term is
    formed inside the pass that Zech-adds it to the sum so far, so a term in
    at most two variables takes one pass, and one in k > 2 variables k - 1:
    all factors but its last are formed apart.
    """
    acc = None
    for c, expo in terms:
        used = [(e, cols[j]) for j, e in enumerate(expo) if e]
        if acc is None or len(used) > 2:
            # the first term is formed whole, a later one all but its last
            # factor, which joins the sum below
            factors = used if acc is None else used[:-1]
            if not factors:
                term = [c] * len(cols[0])
            elif len(factors) == 1:
                (e, xs), = factors
                term = [n if x == n else (c + e * x) % n for x in xs]
            else:
                (e, xs), (f, ys), *rest = factors
                term = [n if x == n or y == n else (c + e * x + f * y) % n
                        for x, y in zip(xs, ys)]
                for e, xs in rest:  # a value below n, or n for 0
                    term = [n if t == n or x == n else (t + e * x) % n
                            for t, x in zip(term, xs)]
            if acc is None:
                acc = term
                continue
            c, used = 0, [(1, term), used[-1]]
        # the term t = c + e x (+ f y) joins the sum a as a + zech[t - a]:
        # a zero coordinate leaves a, and a zero a takes t
        if not used:
            acc = [c if a == n else n if (z := zech[(c - a) % n]) == n else (a + z) % n
                   for a in acc]
        elif len(used) == 1:
            (e, xs), = used
            acc = [a if x == n else (c + e * x) % n if a == n
                   else n if (z := zech[(c + e * x - a) % n]) == n else (a + z) % n
                   for a, x in zip(acc, xs)]
        else:
            (e, xs), (f, ys) = used
            acc = [a if x == n or y == n else (c + e * x + f * y) % n if a == n
                   else n if (z := zech[(c + e * x + f * y - a) % n]) == n else (a + z) % n
                   for a, x, y in zip(acc, xs, ys)]
    return [n] * len(cols[0]) if acc is None else acc


# matched with fullmatch: "$" would also accept a trailing newline
_VAR_RE = re.compile(r"x([0-9]+)(?:\^([0-9]+))?")
_INT_RE = re.compile(r"[0-9]+")
# spaces are dropped before a factor is read, so one between digits would join them
_SPLIT_DIGITS_RE = re.compile(r"[0-9] +[0-9]")


def _parse_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # past the interpreter's integer digit limit
        raise PolyParseError(f"number of {len(digits)} digits is too long") from exc


def parse_poly(text: str, nvars: int, p: int) -> MPoly:
    """Parse `c*x1^e1*...*xn^en` terms joined by `+`; exact, rejects junk.

    Spaces are ignored, except that one between two digits is an error."""
    if p >= 2**64:  # keeps the primality test exact and fast
        raise PolyParseError(f"characteristic {p} is not below the bound 2^64")
    if not is_prime(p):
        raise PolyParseError(f"characteristic {p} is not prime")
    if _SPLIT_DIGITS_RE.search(text):
        factor = next(f for f in re.split("[+*]", text) if _SPLIT_DIGITS_RE.search(f))
        raise PolyParseError(f"space between digits in factor {factor.strip(' ')!r} of {text!r}")
    stripped = text.replace(" ", "")
    if not stripped:
        raise PolyParseError("empty polynomial text")
    terms: dict[tuple[int, ...], int] = {}
    for chunk in stripped.split("+"):
        if not chunk:
            raise PolyParseError(f"empty term in {text!r}")
        coeff = 1
        expo = [0] * nvars
        for factor in chunk.split("*"):
            if _INT_RE.fullmatch(factor):
                coeff = (coeff * _parse_int(factor)) % p
                continue
            m = _VAR_RE.fullmatch(factor)
            if not m:
                raise PolyParseError(f"bad factor {factor!r} in {text!r}")
            idx = _parse_int(m.group(1))
            if not 1 <= idx <= nvars:
                raise PolyParseError(f"variable x{idx} out of range 1..{nvars}")
            expo[idx - 1] += _parse_int(m.group(2)) if m.group(2) else 1
        key = tuple(expo)
        terms[key] = (terms.get(key, 0) + coeff) % p
    return MPoly(nvars, p, terms)


class PolyMap:
    """A polynomial self-map of A^n, one coordinate polynomial per output."""

    __slots__ = ("nvars", "p", "coords")

    def __init__(self, coords: Sequence[MPoly]):
        if not coords:
            raise PolyError("a polynomial map needs at least one coordinate")
        nvars, p = coords[0].nvars, coords[0].p
        for f in coords:
            if f.nvars != nvars or f.p != p:
                raise PolyError("coordinates live in different polynomial rings")
        self.nvars = nvars
        self.p = p
        self.coords = tuple(coords)

    @classmethod
    def identity(cls, nvars: int, p: int) -> "PolyMap":
        return cls([MPoly.var(i + 1, nvars, p) for i in range(nvars)])

    @classmethod
    def parse(cls, texts: Sequence[str], nvars: int, p: int) -> "PolyMap":
        if nvars < 1:
            raise PolyParseError(f"number of variables must be >= 1, got {nvars}")
        if len(texts) != nvars:
            raise PolyParseError(f"map needs {nvars} coordinate polynomials, got {len(texts)}")
        return cls([parse_poly(t, nvars, p) for t in texts])

    def compose(self, other: "PolyMap") -> "PolyMap":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if self.nvars != other.nvars or self.p != other.p:
            raise PolyError("composed maps live on different spaces")
        return PolyMap([f.substitute(other.coords) for f in self.coords])

    def iterate(self, k: int) -> "PolyMap":
        if k < 0:
            raise PolyError("iteration count must be nonnegative")
        result = PolyMap.identity(self.nvars, self.p)
        for _ in range(k):
            result = self.compose(result)
        return result

    def max_degree(self) -> int:
        return max(f.total_degree() for f in self.coords)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyMap) and self.coords == other.coords

    def __repr__(self) -> str:
        return f"PolyMap([{', '.join(f.to_text() for f in self.coords)}])"


class IqSystem:
    """The zero-dimensional system generated by f_i - x_i^Q, Q > deg f_i.

    Its quotient A = F_p[x]/(x_i^Q - f_i) has the reduced monomials (every
    exponent < Q) as a basis.  An element of A is a term map {packed exponent:
    coefficient}, x_(i+1)'s exponent in bits [w i, w i + w), w = b + 1 for b
    the bit length of the largest total degree reached: n(2Q - 2) for a
    product, n p (Q - 1) for a p-th power, or a larger public input's.
    Rewrites only lower it, so bit b of each field is a guard.  It keeps the
    reduced powers NF(f_k^e) and the last sides of f^(j)_i = x_i^(Q^j).
    """

    __slots__ = ("map", "Q", "_layout", "_powers", "_sides", "_verdicts")

    def __init__(self, pmap: PolyMap, Q: int):
        p = pmap.p
        q = Q
        while Q >= 2 and q % p == 0:  # unguarded, 0 % p == 0 would loop forever
            q //= p
        if q != 1 or Q < 2:
            raise PolyError(f"Q = {Q} is not a positive power of the characteristic {p}")
        if Q <= pmap.max_degree():
            raise PolyError(
                f"Q = {Q} must exceed every coordinate degree (max {pmap.max_degree()})")
        self.map = pmap
        self.Q = Q
        self._layout = self._layout_for(0)
        w = self._layout[0]
        self._powers = [[{0: 1}, f] for f in self._layout[4]]
        # (NF(f^(j)_i))_i and (NF(x_i^(Q^j)))_i for the last j formed; j = 0 is x itself
        self._sides = (tuple({1 << w * i: 1} for i in range(pmap.nvars)),) * 2
        self._verdicts = [True]  # index j: whether the sides of j agree

    def _layout_for(self, degree: int) -> tuple:
        """(w, ADD, HIGH, rules, coords) for total degrees to max(degree, n(2Q - 2), np(Q - 1)).

        ADD and HIGH hold 2^b - Q and 2^b in every field, so some e_i >= Q iff
        (key + ADD) & HIGH; rules maps bit b of field i to the terms of f_i
        less Q in field i, which x^e -> x^(e - Q e_i) f_i adds to e; coords
        holds the packed f_i."""
        Q, n = self.Q, self.map.nvars
        b = max(degree, n * (2 * Q - 2), n * self.map.p * (Q - 1)).bit_length()
        if b + 1 == getattr(self, "_layout", (0,))[0]:  # unset while __init__ builds it
            return self._layout
        w = b + 1
        ones = ((1 << w * n) - 1) // ((1 << w) - 1)  # 1 in every field
        coords = [self._pack(f, w) for f in self.map.coords]
        rules = {1 << s + b: [(e - (Q << s), c) for e, c in f.items()]
                 for s, f in zip(range(0, w * n, w), coords)}
        return w, (2**b - Q) * ones, ones << b, rules, coords

    def _pack(self, g: MPoly, w: int) -> dict[int, int]:
        if g.nvars != self.map.nvars or g.p != self.map.p:
            raise PolyError("polynomial lives in a different ring than the system")
        return {sum(map(lshift, e, range(0, w * g.nvars, w))): c for e, c in g.terms.items()}

    def _unpack(self, terms: dict[int, int], w: int) -> MPoly:
        n, mask = self.map.nvars, (1 << w) - 1
        return MPoly(n, self.map.p, {tuple(e >> s & mask for s in range(0, w * n, w)): c
                                     for e, c in terms.items()})

    def normal_form(self, g: MPoly) -> MPoly:
        """Unique representative of g in A, with every exponent < Q."""
        layout = self._layout_for(g.total_degree())
        return self._unpack(self._reduce(self._pack(g, layout[0]), layout), layout[0])

    def _reduce(self, terms: dict[int, int], layout: tuple) -> dict[int, int]:
        """Rewrite a packed term map in place to its normal form, and return it.

        Reducible monomials wait in a heap, greatest total degree (key mod
        2^w - 1) first.  A rewrite x^e -> x^(e - Q e_i) f_i, for the least i
        with e_i >= Q (the lowest guard bit of key + ADD), creates monomials of
        lower total degree as Q > deg f_i, so none is rewritten twice; the
        coprime x_i^Q make the result independent of the order of rewrites.
        """
        w, add, high, rules, _ = layout
        p, budget, mod = self.map.p, DEFAULT_TERM_BUDGET, (1 << w) - 1
        heap = [(-(e % mod), e) for e in terms if (e + add) & high]
        heapify(heap)
        while heap:
            e = heappop(heap)[1]
            c = terms.pop(e, 0)
            if not c:  # it cancelled after it was pushed
                continue
            guards = (e + add) & high
            for fe, fc in rules[guards & -guards]:
                key = e + fe
                old = terms.get(key, 0)
                val = (old + c * fc) % p
                if val:
                    terms[key] = val
                    if not old and (key + add) & high:
                        heappush(heap, (-(key % mod), key))
                elif old:
                    del terms[key]
            if len(terms) > budget:
                raise TermBudgetExceeded(f"normal form grew past {budget} terms")
        return terms

    def _product(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        """a * b in A for packed reduced a and b; a monomial product is one add."""
        if len(a) * len(b) > DEFAULT_TERM_BUDGET:
            raise TermBudgetExceeded(f"product of {len(a)} x {len(b)} terms over budget")
        p, terms = self.map.p, {}
        get = terms.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                terms[e] = get(e, 0) + c1 * c2
        return self._reduce({e: c % p for e, c in terms.items() if c % p}, self._layout)

    def _power(self, k: int, e: int) -> dict[int, int]:
        """NF(f_k^e), from the cache; f_k is reduced because Q > deg f_k."""
        row = self._powers[k]
        while len(row) <= e:
            row.append(self._product(row[-1], row[1]))
        return row[e]

    def _compose(self, g: dict[int, int]) -> dict[int, int]:
        """NF(g(f_1, ..., f_n)) for a reduced g.

        The terms of g are grouped by their exponents of x_2..x_n (key >> w);
        within a group the powers f_1^(key & 2^w - 1) are only added up, so
        each group costs n - 1 products in A."""
        w, p = self._layout[0], self.map.p
        mask = (1 << w) - 1
        groups: dict[int, dict[int, int]] = {}
        for e, c in g.items():
            _add_scaled(groups.setdefault(e >> w, {}), self._power(0, e & mask), c, p)
        acc: dict[int, int] = {}
        for tail, term in groups.items():
            for k in range(1, self.map.nvars):
                if ek := tail >> w * (k - 1) & mask:
                    term = self._product(term, self._power(k, ek))
            _add_scaled(acc, term, 1, p)
        return acc

    def _frob(self, g: dict[int, int]) -> dict[int, int]:
        """g^Q in A for a reduced g: k rounds of g <- NF(g^p) for Q = p^k, where g^p
        scales every key by p, each field by p as none overflows, and multiplies nothing."""
        p, q = self.map.p, self.Q
        while q > 1:
            g = self._reduce({e * p: c for e, c in g.items()}, self._layout)
            q //= p
        return g

    def quotient_dimension(self) -> int:
        """Vector-space dimension of the quotient by the system's ideal.

        The reduced monomials (all exponents < Q) form a basis, so the
        dimension is Q^n; before returning, check the generators are
        consistent with the rewriting (each f_i - x_i^Q reduces to zero).
        """
        w, p = self._layout[0], self.map.p
        for i, f in enumerate(self._layout[4]):  # the packed f_i, less x_i^Q
            if self._reduce({**f, self.Q << w * i: p - 1}, self._layout):
                raise PolyError("generator does not reduce to zero; system is inconsistent")
        return self.Q**self.map.nvars

    def iterate_congruence_check(self, j: int) -> bool:
        """True iff each coordinate of the j-th iterate is congruent to x_i^(Q^j).

        Both sides are computed in A, and the last pair and every verdict are
        kept.  The left is f^(j)_i by j compositions g <- NF(g o f) from g = x_i;
        the right is x_i^(Q^j) by raising x_i^(Q^(j-1)) to the power Q with
        p-th powers, which multiply nothing.  The routes share only the normal form.

        This must hold for every well-formed system; a False return signals
        an implementation bug rather than a property of the input.
        """
        if j < 1:
            raise PolyError("iterate index must be >= 1")
        while len(self._verdicts) <= j:
            left, right = self._sides
            self._sides = (tuple(map(self._compose, left)), tuple(map(self._frob, right)))
            self._verdicts.append(self._sides[0] == self._sides[1])
        return self._verdicts[j]


def _add_scaled(acc: dict[int, int], g: dict[int, int], c: int, p: int) -> None:
    """acc += c * g, on a term map, dropping the terms that cancel."""
    for e, gc in g.items():
        val = (acc.get(e, 0) + c * gc) % p
        if val:
            acc[e] = val
        else:
            acc.pop(e, None)
