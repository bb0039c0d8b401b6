"""Independent brute-force solvers used to cross-check library output.

These deliberately avoid the library's evaluation and enumeration code:
polynomials are evaluated straight off their term maps by repeated
multiplication, Frobenius powers by literal p-fold products, subfield
membership by its definition, and 2x2 matrices as four field elements
multiplied out entry by entry (the library stores them as logarithms),
Stallings folding by re-sorting the whole edge set after each merge,
irreducibility over F_p by trial division with a remainder of their own,
and a certificate's trace by one walk per entry, matrix, row and
coefficient (the library reads it in whole-trace passes).
What they share with the library is `field_create`, `FqField.from_int`
(`elements` lists a field with it) and the `FqElement` arithmetic (verified
exhaustively in test_gf), `Word` and `FreeEndo` for their letters, and
`Mat2.from_entries`, the `Mat2` entry properties and `MatTuple` as
containers that carry entries to and from the code under test.
"""

import itertools
import math

from quasifix.freegroup import FreeEndo, StallingsGraph, Word, WordError
from quasifix.gf import field_create
from quasifix.matrep import Mat2, MatTuple


def elements(field):
    """Every element of the field, in index order."""
    return [field.from_int(n) for n in range(field.order)]


def naive_eval(f, point):
    field = point[0].field
    total = field.zero()
    for expo, c in f.terms.items():
        term = field.scalar(c)
        for a, e in zip(point, expo):
            for _ in range(e):
                term = term * a
        total = total + term
    return total


def naive_pth_power(a):
    acc = a.field.one()
    for _ in range(a.field.p):
        acc = acc * a
    return acc


def naive_frobenius(a, m):
    for _ in range(m):
        a = naive_pth_power(a)
    return a


def naive_remainder(a, b, p):
    """a mod b over F_p for monic b; coefficient tuples, constant term first."""
    r, k = list(a), len(b) - 1
    for top in reversed(range(k, len(r))):
        c = r[top]
        for i, bi in enumerate(b):
            r[top - k + i] = (r[top - k + i] - c * bi) % p
    return r[:k]


def naive_is_irreducible(f, p):
    """Whether monic f over F_p has no monic factor of degree 1 to deg(f)/2,
    by trial division by every such polynomial."""
    return all(any(naive_remainder(f, low + (1,), p))
               for d in range(1, (len(f) - 1) // 2 + 1)
               for low in itertools.product(range(p), repeat=d))


def naive_min_irreducible(p, m):
    """The first monic irreducible of degree m, low coefficients counted in base p."""
    return next(f for f in (tuple(reversed(high)) + (1,)
                            for high in itertools.product(range(p), repeat=m))
                if naive_is_irreducible(f, p))


def oracle_quasi_fixed(pmap, s_max):
    """Set of (s, m, coefficient-key) triples found by double-loop search."""
    out = set()
    n, p = pmap.nvars, pmap.p
    for s in range(1, s_max + 1):
        field = field_create(p, s)
        elems = elements(field)
        frob_rows = {a.coeffs: [naive_frobenius(a, m) for m in range(1, s + 1)]
                     for a in elems}
        for point in itertools.product(elems, repeat=n):
            deg = 1
            for a in point:
                d = next(d for d in range(1, s + 1)
                         if s % d == 0 and frob_rows[a.coeffs][d - 1] == a)
                deg = deg * d // math.gcd(deg, d)
            if deg != s:
                continue
            values = [naive_eval(f, point) for f in pmap.coords]
            for m in range(1, s + 1):
                if all(v == frob_rows[a.coeffs][m - 1]
                       for v, a in zip(values, point)):
                    out.add((s, m, tuple(a.coeffs for a in point)))
                    break
    return out


def witness_key_set(witnesses):
    return {(w.field_degree, w.m, tuple(a.coeffs for a in w.point))
            for w in witnesses}


# -- 2x2 matrices as (a, b, c, d) tuples of field elements, row-major ----------

def entries(m):
    """The entries of a library `Mat2`, as field elements."""
    return (m.a, m.b, m.c, m.d)


def naive_mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def naive_adj(x):
    a, b, c, d = x
    zero = a.field.zero()
    return (d, zero - b, zero - c, a)


def naive_det(x):
    a, b, c, d = x
    return a * d - b * c


def naive_scale(x, s):
    return tuple(v * s for v in x)


def naive_normalized(x):
    """x scaled so its first nonzero entry is 1; None for the zero matrix."""
    first = next((v for v in x if not v.is_zero()), None)
    return None if first is None else naive_scale(x, first.inv())


def naive_is_scalar(x):
    a, b, c, d = x
    return b.is_zero() and c.is_zero() and a == d


def naive_word_value(w, mats):
    """w evaluated on entry tuples, the adjugate standing in for each inverse."""
    one, zero = mats[0][0].field.one(), mats[0][0].field.zero()
    acc = (one, zero, zero, one)
    for x in w.letters:
        acc = naive_mat_mul(acc, mats[x - 1] if x > 0 else naive_adj(mats[-x - 1]))
    return acc


def naive_lift(phi, mats):
    """The lifted endomorphism on entry tuples: each image word's value at mats."""
    return tuple(naive_word_value(w, mats) for w in phi.images)


def naive_verdict(cert):
    """(name, status, detail) of every check `verify_certificate` reports for
    a certificate that passes `structure`, from entry-by-entry products of
    the rows read as field elements; no matrix code of the library is used."""
    field = field_create(cert.p, cert.s)
    rows = [[tuple(field.element(row) for row in mat) for mat in entry]
            for entry in cert.trace]
    phi, w = FreeEndo.parse(cert.images, cert.rank), Word.parse(cert.word, cert.rank)
    checks = [("structure", "pass", "fields, words and shapes are coherent")]

    def record(name, problems, passed):
        checks.append((name, "fail", "; ".join(problems)) if problems else (name, "pass", passed))

    member = []
    for i, entry in enumerate(rows):
        for j, x in enumerate(entry):
            if naive_det(x).is_zero():
                member.append(f"trace[{i}] matrix {j} is singular")
            elif naive_normalized(x) != x:
                member.append(f"trace[{i}] matrix {j} is not scalar-canonical")
    record("tuple_in_group", member, "all matrices invertible and scalar-canonical")
    record("condition_i", [], "free group: no relations, holds vacuously")
    if member:
        return checks + [(name, "skipped", "tuple is not in the group")
                         for name in ("condition_ii", "condition_iii", "wreath_relations")]
    n = len(rows)
    holds = [[naive_normalized(naive_word_value(image, rows[i])) == rows[(i + 1) % n][j]
              for j, image in enumerate(phi.images)] for i in range(n)]
    orbit = [f"step from trace[{i}] does not give trace[{(i + 1) % n}]"
             for i in range(n) if not all(holds[i])]
    if len({tuple(entry) for entry in rows}) != n:
        orbit.append("period is not minimal: trace entries repeat")
    record("condition_ii", orbit, f"orbit closes with minimal period {n}")
    nontrivial = not naive_is_scalar(naive_word_value(w, rows[0]))
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
    x = entries(m)
    return Mat2.from_entries(m.field, naive_scale(naive_adj(x), naive_det(x).inv()))


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
