"""Independent brute-force solvers used to cross-check library output.

These deliberately avoid the library's evaluation and enumeration code:
polynomials are evaluated straight off their term maps by repeated
multiplication, Frobenius powers by powering, subfield membership by its
definition, and 2x2 matrices as four field elements multiplied out entry
by entry (the library stores them as logarithms), Stallings folding by
re-sorting the whole edge set after each merge, irreducibility over F_p by
trial division with a remainder of their own, and a certificate's trace by
one walk per entry, matrix, row and coefficient (the library reads it in
whole-trace passes).
Their field arithmetic is their own too: `NaiveField` is F_p[t]/(f) on
coefficient tuples, with f found by trial division, a schoolbook product
reduced by `naive_remainder`, and the inverse as a^(q - 2); the matrix
helpers are its methods.  What they share with the library is the element
boundary, `FqElement.coeffs` in and `FqField.from_int` out (`elements`
lists a field with it), `Word` and `FreeEndo` for their letters, and
`Mat2.from_entries`, the `Mat2` entry properties, `MatTuple` and
`ProjPoint` as containers that carry entries to and from the code under test.
"""

import functools
import itertools
import math

from quasifix.freegroup import FreeEndo, StallingsGraph, Word, WordError
from quasifix.gf import FqElement
from quasifix.matrep import Mat2, MatTuple, ProjPoint


def elements(field):
    """Every element of the field, in index order."""
    return [field.from_int(n) for n in range(field.order)]


def naive_remainder(a, b, p):
    """a mod b over F_p for monic b; coefficient tuples, constant term first."""
    r, k = list(a), len(b) - 1
    for top in reversed(range(k, len(r))):
        c = r[top]
        for i, bi in enumerate(b):
            r[top - k + i] = (r[top - k + i] - c * bi) % p
    return r[:k]


def _monic(p, m):
    """The monic polynomials of degree m over F_p, low coefficients counted in base p."""
    return (tuple(reversed(high)) + (1,) for high in itertools.product(range(p), repeat=m))


def naive_is_irreducible(f, p):
    """Whether monic f over F_p has no monic factor of degree 1 to deg(f)/2,
    by trial division by every such polynomial."""
    return all(any(naive_remainder(f, g, p))
               for d in range(1, (len(f) - 1) // 2 + 1) for g in _monic(p, d))


def naive_min_irreducible(p, m):
    """The first monic irreducible of degree m, low coefficients counted in base p."""
    return next(f for f in _monic(p, m) if naive_is_irreducible(f, p))


class NaiveField:
    """F_{p^m} as F_p[t]/(f), f = naive_min_irreducible(p, m), on coefficient
    tuples (constant term first); index order counts them in base p.  Matrices
    are (a, b, c, d) tuples of elements, row-major."""

    def __init__(self, p, m):
        self.p, self.m, self.f = p, m, naive_min_irreducible(p, m)
        self.zero, self.one = (0,) * m, (1,) + (0,) * (m - 1)

    def elements(self):
        """Every element in index order: the monic polynomials of degree m less t^m."""
        return [f[:-1] for f in _monic(self.p, self.m)]

    def index(self, a):
        n = 0
        for c in reversed(a):
            n = n * self.p + c
        return n

    def scalar(self, c):
        return (c % self.p,) + self.zero[1:]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    @functools.lru_cache(maxsize=1 << 16)  # brute force repeats the products of small fields
    def mul(self, a, b):
        """The schoolbook product, reduced by naive_remainder."""
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        return tuple(c % self.p for c in naive_remainder(prod, self.f, self.p))

    def power(self, a, e):
        """a^e by left-to-right square-and-multiply."""
        acc = self.one
        for bit in bin(e)[2:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, a)
        return acc

    def frobenius(self, a, k):
        return self.power(a, self.p**k)

    def inv(self, a):
        return self.power(a, self.p**self.m - 2)

    def eval(self, f, point):
        total = self.zero
        for expo, c in f.terms.items():
            term = self.scalar(c)
            for a, e in zip(point, expo):
                for _ in range(e):
                    term = self.mul(term, a)
            total = self.add(total, term)
        return total

    def mat_mul(self, x, y):
        (a, b, c, d), (e, f, g, h), mul, add = x, y, self.mul, self.add
        return (add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
                add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))

    def adj(self, x):
        a, b, c, d = x
        return (d, self.sub(self.zero, b), self.sub(self.zero, c), a)

    def det(self, x):
        a, b, c, d = x
        return self.sub(self.mul(a, d), self.mul(b, c))

    def scale(self, x, s):
        return tuple(self.mul(v, s) for v in x)

    def inverse(self, x):
        return self.scale(self.adj(x), self.inv(self.det(x)))

    def normalized(self, x):
        """x scaled so its first nonzero entry is 1; None for the zero matrix."""
        first = next((v for v in x if any(v)), None)
        return None if first is None else self.scale(x, self.inv(first))

    def is_scalar(self, x):
        a, b, c, d = x
        return not any(b) and not any(c) and a == d

    def word_value(self, w, mats):
        """w evaluated on matrices, the adjugate standing in for each inverse."""
        acc = (self.one, self.zero, self.zero, self.one)
        for x in w.letters:
            acc = self.mat_mul(acc, mats[x - 1] if x > 0 else self.adj(mats[-x - 1]))
        return acc

    def lift(self, phi, mats):
        """The lifted endomorphism: each image word's value at mats."""
        return tuple(self.word_value(w, mats) for w in phi.images)


naive_field = functools.cache(NaiveField)


def _on_elements(method):
    """`method` of `NaiveField` as a function of library elements: those in its
    arguments (also inside tuples and lists) enter by `.coeffs`, and the
    coefficient tuples in its result leave by `from_int`."""
    def call(*args):
        fields = []

        def inward(v):
            if isinstance(v, FqElement):
                fields.append(v.field)
                return v.coeffs
            return tuple(map(inward, v)) if isinstance(v, (tuple, list)) else v

        args = inward(args)
        field = fields[0]
        F = naive_field(field.p, field.m)

        def outward(v):
            if not isinstance(v, tuple):
                return v
            if all(type(c) is int for c in v):
                return field.from_int(F.index(v))
            return tuple(map(outward, v))

        return outward(method(F, *args))
    return call


naive_eval = _on_elements(NaiveField.eval)
naive_frobenius = _on_elements(NaiveField.frobenius)
# -- 2x2 matrices as (a, b, c, d) tuples of library elements, row-major
naive_mat_mul = _on_elements(NaiveField.mat_mul)
naive_adj = _on_elements(NaiveField.adj)
naive_det = _on_elements(NaiveField.det)
naive_scale = _on_elements(NaiveField.scale)
naive_inverse = _on_elements(NaiveField.inverse)
naive_normalized = _on_elements(NaiveField.normalized)
naive_is_scalar = _on_elements(NaiveField.is_scalar)
naive_word_value = _on_elements(NaiveField.word_value)
naive_lift = _on_elements(NaiveField.lift)


def oracle_projpoint(field, k, rng):
    """Matrices drawn row by row in coefficient order, redrawn while singular."""
    mats = []
    for _ in range(k):
        while True:
            x = tuple(field.element([rng.randrange(field.p) for _ in range(field.m)])
                      for _ in range(4))
            if not naive_det(x).is_zero():
                break
        mats.append(Mat2.from_entries(field, naive_normalized(x)))
    return ProjPoint(MatTuple(mats))


def oracle_quasi_fixed(pmap, s_max):
    """Set of (s, m, coefficient-key) triples found by double-loop search."""
    out = set()
    n, p = pmap.nvars, pmap.p
    for s in range(1, s_max + 1):
        F = naive_field(p, s)
        elems = F.elements()
        frob_rows = {a: [F.frobenius(a, m) for m in range(1, s + 1)] for a in elems}
        for point in itertools.product(elems, repeat=n):
            deg = 1
            for a in point:
                d = next(d for d in range(1, s + 1)
                         if s % d == 0 and frob_rows[a][d - 1] == a)
                deg = deg * d // math.gcd(deg, d)
            if deg != s:
                continue
            values = [F.eval(f, point) for f in pmap.coords]
            for m in range(1, s + 1):
                if all(v == frob_rows[a][m - 1] for v, a in zip(values, point)):
                    out.add((s, m, point))
                    break
    return out


def witness_key_set(witnesses):
    return {(w.field_degree, w.m, tuple(a.coeffs for a in w.point))
            for w in witnesses}


def entries(m):
    """The entries of a library `Mat2`, as field elements."""
    return (m.a, m.b, m.c, m.d)


def naive_verdict(cert):
    """(name, status, detail) of every check `verify_certificate` reports for
    a certificate that passes `structure`, from entry-by-entry products of
    the rows read as coefficient tuples; no field or matrix code of the
    library is used."""
    F = naive_field(cert.p, cert.s)
    rows = [[tuple(map(tuple, mat)) for mat in entry] for entry in cert.trace]
    phi, w = FreeEndo.parse(cert.images, cert.rank), Word.parse(cert.word, cert.rank)
    checks = [("structure", "pass", "fields, words and shapes are coherent")]

    def record(name, problems, passed):
        checks.append((name, "fail", "; ".join(problems)) if problems else (name, "pass", passed))

    member = []
    for i, entry in enumerate(rows):
        for j, x in enumerate(entry):
            if not any(F.det(x)):
                member.append(f"trace[{i}] matrix {j} is singular")
            elif F.normalized(x) != x:
                member.append(f"trace[{i}] matrix {j} is not scalar-canonical")
    record("tuple_in_group", member, "all matrices invertible and scalar-canonical")
    record("condition_i", [], "free group: no relations, holds vacuously")
    if member:
        return checks + [(name, "skipped", "tuple is not in the group")
                         for name in ("condition_ii", "condition_iii", "wreath_relations")]
    n = len(rows)
    holds = [[F.normalized(F.word_value(image, rows[i])) == rows[(i + 1) % n][j]
              for j, image in enumerate(phi.images)] for i in range(n)]
    orbit = [f"step from trace[{i}] does not give trace[{(i + 1) % n}]"
             for i in range(n) if not all(holds[i])]
    if len({tuple(entry) for entry in rows}) != n:
        orbit.append("period is not minimal: trace entries repeat")
    record("condition_ii", orbit, f"orbit closes with minimal period {n}")
    nontrivial = not F.is_scalar(F.word_value(w, rows[0]))
    record("condition_iii", [] if nontrivial else ["word value at the base tuple is scalar"],
           "word value at the base tuple is non-scalar")
    bad = [f"generator {j + 1}" for j in range(cert.rank) if not all(h[j] for h in holds)]
    wreath = ["relations fail for " + ", ".join(bad)] if bad else []
    if not nontrivial:
        wreath.append("word image has trivial first coordinate")
    record("wreath_relations", wreath,
           "shift conjugation matches image rows; word image is nontrivial")
    return checks


def naive_trace_and_head(data):
    """The trace and declared tuple of a certificate object as nested tuples,
    or ValueError with the message of the first malformation in file order:
    each entry, matrix, row and coefficient checked in turn."""
    def as_mat(value, what):
        if not isinstance(value, list) or len(value) != 4:
            raise ValueError(f"{what} must be a list of 4 entry rows")
        for row in value:
            if not isinstance(row, list) or not row:
                raise ValueError(f"{what} entries must be nonempty coefficient lists")
            for c in row:
                if type(c) is not int:  # JSON true and false are bools
                    raise ValueError(f"{what} coefficient must be an integer")
        return tuple(tuple(row) for row in value)

    if not isinstance(data["trace"], list) or not data["trace"]:
        raise ValueError("trace must be a nonempty list")
    trace = []
    for entry in data["trace"]:
        if not isinstance(entry, list):
            raise ValueError("trace entries must be lists of matrices")
        trace.append(tuple(as_mat(m, "trace matrix") for m in entry))
    if not isinstance(data["tuple"], list):
        raise ValueError("tuple must be a list")
    return tuple(trace), tuple(as_mat(m, "tuple matrix") for m in data["tuple"])


def naive_trace_problem(trace, rank, p, s):
    """The structure check's problem with a trace, None when it has none, and
    the element index of every row read before it: the entries in order, each
    checked for its arity, then its row counts, then each row's length and
    each coefficient's range as Horner's rule in p folds it."""
    indices = []
    for entry in trace:
        if len(entry) != rank:
            return "trace entry arity differs from rank", indices
        if any(len(mat) != 4 for mat in entry):
            return "trace matrix does not have 4 entry rows", indices
        for mat in entry:
            for row in mat:
                if len(row) != s:
                    return "matrix coefficients out of range for the field", indices
                n = 0
                for c in reversed(row):
                    if not 0 <= c < p:
                        return "matrix coefficients out of range for the field", indices
                    n = n * p + c
                indices.append(n)
    return None, indices


def mat_mul(x, y):
    return Mat2.from_entries(x.field, naive_mat_mul(entries(x), entries(y)))


def mat_scale(m, s):
    return Mat2.from_entries(m.field, naive_scale(entries(m), s))


def mat_inverse(m):
    return Mat2.from_entries(m.field, naive_inverse(entries(m)))


def mat_frobenius(m, e):
    return Mat2.from_entries(m.field, [naive_frobenius(v, e) for v in entries(m)])


def tuple_frobenius(t, e):
    return MatTuple([mat_frobenius(m, e) for m in t.mats])


def _naive_fold_edges(edges):
    """Merge vertices until no label repeats among out-edges or in-edges."""
    edges = set(edges)
    while True:
        merge = None
        out_seen = {}
        in_seen = {}
        for (u, lab, v) in sorted(edges):
            w = out_seen.get((u, lab))
            if w is not None and w != v:
                merge = (min(v, w), max(v, w))
                break
            out_seen[(u, lab)] = v
            w = in_seen.get((v, lab))
            if w is not None and w != u:
                merge = (min(u, w), max(u, w))
                break
            in_seen[(v, lab)] = u
        if merge is None:
            return edges
        keep, drop = merge
        edges = {(keep if a == drop else a, lab, keep if b == drop else b)
                 for (a, lab, b) in edges}


def naive_fold(words, rank=None):
    """Folded core graph by one merge per sweep of the sorted edges, then leaf trimming."""
    words = list(words)
    if not words:
        raise WordError("folding needs at least one word")
    rank = words[0].rank if rank is None else rank
    for w in words:
        if w.rank != rank:
            raise WordError("words have different ranks")
    edges = set()
    fresh = 1
    for w in words:
        prev = 0
        for pos, x in enumerate(w.letters):
            nxt = 0 if pos == len(w.letters) - 1 else fresh
            if nxt:
                fresh += 1
            if x > 0:
                edges.add((prev, x, nxt))
            else:
                edges.add((nxt, -x, prev))
            prev = nxt
    edges = _naive_fold_edges(edges)
    # trim hanging trees: the core keeps the basepoint even if isolated
    while True:
        degree = {}
        for (u, _, v) in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        leaf = next((v for v, d in sorted(degree.items()) if d == 1 and v != 0), None)
        if leaf is None:
            break
        edges = {e for e in edges if leaf not in (e[0], e[2])}
    vertices = {0} | {u for (u, _, v) in edges} | {v for (u, _, v) in edges}
    return StallingsGraph(frozenset(vertices), frozenset(edges), 0)
