"""Independent brute-force solvers used to cross-check library output.

These deliberately avoid the library's evaluation and enumeration code:
polynomials are evaluated straight off their term maps by repeated
multiplication, Frobenius powers by literal p-fold products, subfield
membership by its definition, and 2x2 matrices as four field elements
multiplied out entry by entry (the library stores them as logarithms).
Only the base field arithmetic (verified exhaustively in test_gf) is shared.
"""

import itertools
import math

from quasifix.freegroup import FreeEndo, Word
from quasifix.gf import field_create
from quasifix.matrep import Mat2, MatTuple


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


def oracle_quasi_fixed(pmap, s_max):
    """Set of (s, m, coefficient-key) triples found by double-loop search."""
    out = set()
    n, p = pmap.nvars, pmap.p
    for s in range(1, s_max + 1):
        field = field_create(p, s)
        elems = list(field)
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
    return (d, -b, -c, a)


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


def mat_scale(m, s):
    return Mat2.from_entries(m.field, naive_scale(entries(m), s))


def mat_inverse(m):
    x = entries(m)
    return Mat2.from_entries(m.field, naive_scale(naive_adj(x), naive_det(x).inv()))


def mat_frobenius(m, e):
    return Mat2.from_entries(m.field, [naive_frobenius(v, e) for v in entries(m)])


def tuple_frobenius(t, e):
    return MatTuple([mat_frobenius(m, e) for m in t.mats])
