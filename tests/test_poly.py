import gc
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import elements, naive_eval, naive_frobenius
from quasifix import gf, poly
from quasifix.gf import DEFAULT_ORDER_CAP, FieldError, field_create
from quasifix.poly import (
    IqSystem,
    MPoly,
    PolyError,
    PolyMap,
    PolyParseError,
    TermBudgetExceeded,
    parse_poly,
)


# -- oracles ---------------------------------------------------------------

def univariate_divmod(a: list[int], b: list[int], p: int):
    """Schoolbook division of dense coefficient lists (low degree first)."""
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 1)
    inv = pow(b[-1], p - 2, p)
    while len(r) >= len(b):
        if r[-1] == 0:
            r.pop()
            continue
        c = (r[-1] * inv) % p
        shift = len(r) - len(b)
        q[shift] = c
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - c * bi) % p
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return q, r


def dense_coeffs(f: MPoly) -> list[int]:
    assert f.nvars == 1
    out = [0] * (f.total_degree() + 1 if f.terms else 1)
    for (e,), c in f.terms.items():
        out[e] = c
    return out


def monomial(c: int, exponents, p: int) -> MPoly:
    return MPoly(len(exponents), p, {tuple(exponents): c})


def multivariate_remainder(g: MPoly, sys: IqSystem) -> MPoly:
    """Division-with-remainder oracle: always cancel the graded-lex leading
    term by the first generator whose x_i^Q divides it."""
    Q, pmap = sys.Q, sys.map
    n, p = pmap.nvars, pmap.p
    remainder = MPoly.zero(n, p)
    work = g
    while work.terms:
        lead = max(work.terms, key=lambda e: (sum(e), e))
        c = work.terms[lead]
        for i in range(n):
            if lead[i] >= Q:
                cofactor = tuple(e - Q if j == i else e for j, e in enumerate(lead))
                # leading coefficient +1, so the subtraction cancels `lead` in any p
                gen = monomial(1, tuple(Q if j == i else 0 for j in range(n)), p) + -pmap.coords[i]
                work = work + -(monomial(c, cofactor, p) * gen)
                break
        else:
            mono = monomial(c, lead, p)
            remainder = remainder + mono
            work = work + -mono
    return remainder


# -- arithmetic ------------------------------------------------------------

def test_ring_axioms_exhaustive_tiny():
    # all univariate polynomials over F2 of degree <= 2
    polys = [MPoly(1, 2, {(0,): c0, (1,): c1, (2,): c2})
             for c0 in range(2) for c1 in range(2) for c2 in range(2)]
    zero = MPoly.zero(1, 2)
    one = MPoly.const(1, 1, 2)
    for f in polys:
        assert f + zero == f and f * one == f
        assert f + -f == zero
    for f in polys:
        for g in polys:
            assert f + g == g + f
            assert f * g == g * f
    for f in polys:
        for g in polys:
            for h in polys:
                assert (f + g) + h == f + (g + h)
                assert f * (g + h) == f * g + f * h


def test_ring_axioms_randomized():
    rng = random.Random(7)

    def rand_poly(nvars, p):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            e = tuple(rng.randrange(0, 3) for _ in range(nvars))
            terms[e] = rng.randrange(p)
        return MPoly(nvars, p, terms)

    for _ in range(200):
        p = rng.choice([2, 3, 5])
        nvars = rng.choice([1, 2, 3])
        f, g, h = (rand_poly(nvars, p) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)


def test_evaluate_examples():
    f2 = field_create(2, 1)
    f = parse_poly("x1+x2", 2, 2)
    assert f.evaluate((f2.one(), f2.one())) == f2.zero()

    f4 = field_create(2, 2)
    t = f4.element([0, 1])
    sq = parse_poly("x1^2", 1, 2)
    assert sq.evaluate((t,)) == f4.element([1, 1])

    c = MPoly.const(3, 2, 5)
    f5 = field_create(5, 1)
    for a in elements(f5):
        for b in elements(f5):
            assert c.evaluate((a, b)) == f5.scalar(3)


def test_evaluate_errors():
    f4 = field_create(2, 2)
    f9 = field_create(3, 2)
    f = parse_poly("x1+x2", 2, 2)
    with pytest.raises(PolyError):
        f.evaluate((f4.one(),))
    with pytest.raises(PolyError):
        f.evaluate((f9.one(), f9.one()))


def test_evaluate_refuses_a_field_past_the_order_cap_before_its_tables():
    # F_{2^21} is past gf.DEFAULT_ORDER_CAP = 2^20, so field_create refuses it,
    # but a field built directly can be past it: its log tables would take
    # seconds and tens of MiB, so the first evaluation is refused without them
    field = gf.FqField(2, 21, gf._min_irreducible(2, 21))
    point = (field.from_int(3), field.from_int(5))
    start = time.perf_counter()
    with pytest.raises(FieldError, match=f"exceeds cap {DEFAULT_ORDER_CAP}"):
        parse_poly("x1^3*x2+x2^2+1", 2, 2).evaluate(point)
    assert time.perf_counter() - start < 0.05
    assert field._log_tables is None


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(11)
    f9 = field_create(3, 2)
    elems = elements(f9)
    for _ in range(100):
        terms_f = {(rng.randrange(3), rng.randrange(3)): rng.randrange(3) for _ in range(3)}
        terms_g = {(rng.randrange(3), rng.randrange(3)): rng.randrange(3) for _ in range(3)}
        f = MPoly(2, 3, terms_f)
        g = MPoly(2, 3, terms_g)
        pt = (rng.choice(elems), rng.choice(elems))
        assert (f * g + f).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt) + f.evaluate(pt)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_evaluate_matches_naive_at_exponents_that_wrap_mod_q_minus_1(p, m):
    # a^(q-1) = 1 for a != 0 but 0^(q-1) = 0, and x^0 = 1 even at x = 0
    field = field_create(p, m)
    q = field.order
    exponents = (0, q - 1, q, 2 * (q - 1))
    polys = [MPoly(2, p, {(e1, e2): 1}) for e1 in exponents for e2 in exponents]
    polys.append(MPoly(2, p, {(e1, e2): e1 + e2 + 1 for e1 in exponents for e2 in exponents}))
    values = [field.zero(), field.one(), field.from_int(q - 1)]
    for pt in itertools.product(values, repeat=2):
        for f in polys:
            assert f.evaluate(pt) == naive_eval(f, pt)
    # three variables: terms in all three take the kernel's general branch,
    # and a^e = a^(1 + (e - 1) % (q - 1)) for every a once e >= 1
    big = 10**20
    wrapped = 1 + (big - 1) % (q - 1)
    cubes = [(MPoly(3, p, {(e1, e2, e3): 1, (e3, e1, 1): 1, (1, 0, e2): 1}),) * 2
             for e1, e2, e3 in itertools.product(exponents, repeat=3)]
    cubes.append((MPoly.zero(3, p),) * 2)
    cubes.append((MPoly(3, p, {(big, big, big): 1, (big, 1, 0): 1, (0, 0, big): 1}),
                  MPoly(3, p, {(wrapped, wrapped, wrapped): 1, (wrapped, 1, 0): 1,
                               (0, 0, wrapped): 1})))
    for pt in itertools.product(values, repeat=3):
        for f, oracle_f in cubes:
            assert f.evaluate(pt) == naive_eval(oracle_f, pt)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 2), (5, 2), (3, 3)])
def test_log_kernel_matches_naive_on_every_point_term_shape_by_term_shape(p, m):
    # the kernel forms the first term apart and folds each later one into the
    # sum, with its own branch for a term in 0, 1, 2 or more variables; so for
    # each count k0 of the first term's variables, one polynomial follows it
    # with a term of every count in shuffled order, over whole columns that
    # hold every point of F_q^n, those with zero coordinates included
    field = field_create(p, m)
    q = field.order
    exp, log, zech = field.log_tables()
    elems = elements(field)
    rng = random.Random(q)
    shapes = set()
    nmax = 4 if q <= 4 else 3
    for n in range(1, nmax + 1):
        points = list(itertools.product(elems, repeat=n))
        cols = [[log[a.to_int()] for a in col] for col in zip(*points)]
        assert poly._log_eval_column([], cols, zech, q - 1) == [q - 1] * len(points)

        def term(k):  # a term in k of the n variables, some repeated
            used = rng.sample(range(n), k)
            return (rng.randrange(1, p),
                    tuple(rng.randint(1, 3) if j in used else 0 for j in range(n)))

        for k0 in range(n + 1):
            later = [term(k) for k in range(n + 1)]
            rng.shuffle(later)
            terms = [term(k0)] + later
            expos = [e for _, e in terms]  # a repeated exponent keeps its first term
            terms = [t for i, t in enumerate(terms) if t[1] not in expos[:i]]
            shapes.update((i > 0, sum(map(bool, e))) for i, (_, e) in enumerate(terms))
            f = MPoly(n, p, {e: c for c, e in terms})
            got = poly._log_eval_column([(log[c], e) for c, e in terms], cols, zech, q - 1)
            assert [exp[v] for v in got] == [naive_eval(f, pt).to_int() for pt in points]
    assert shapes == {(is_later, k) for is_later in (False, True) for k in range(nmax + 1)}


def test_compose_projection_and_identity():
    phi = PolyMap.parse(["x1^2+x2", "x1*x2"], 2, 3)
    x1 = MPoly.var(1, 2, 3)
    assert x1.substitute(phi.coords) == phi.coords[0]
    ident = PolyMap.identity(2, 3)
    assert phi.compose(ident) == phi
    assert ident.compose(phi) == phi


def test_compose_symbolic_squaring():
    phi = PolyMap.parse(["x1^2"], 1, 2)
    phi2 = phi.compose(phi)
    assert phi2.coords[0] == parse_poly("x1^4", 1, 2)
    assert phi.iterate(3).coords[0] == parse_poly("x1^8", 1, 2)


def test_evaluation_commutes_with_composition():
    rng = random.Random(3)
    f5 = field_create(5, 1)
    elems = elements(f5)
    phi = PolyMap.parse(["x1*x2+1", "x1+2*x2^2"], 2, 5)
    for _ in range(50):
        f = MPoly(2, 5, {(rng.randrange(3), rng.randrange(3)): rng.randrange(5)
                         for _ in range(3)})
        pt = (rng.choice(elems), rng.choice(elems))
        image = tuple(g.evaluate(pt) for g in phi.coords)
        assert f.substitute(phi.coords).evaluate(pt) == f.evaluate(image)


# -- I_Q rewriting ----------------------------------------------------------

def test_iq_system_validation():
    phi = PolyMap.parse(["x1^2"], 1, 2)
    with pytest.raises(PolyError):
        IqSystem(phi, 2)  # Q must exceed the degree
    with pytest.raises(PolyError):
        IqSystem(phi, 6)  # not a power of p
    with pytest.raises(PolyError):
        IqSystem(phi, 1)
    with pytest.raises(PolyError):
        IqSystem(phi, 0)  # 0 is divisible by p forever
    IqSystem(phi, 4)


def test_normal_form_already_reduced():
    sys = IqSystem(PolyMap.parse(["x1^2"], 1, 2), 4)
    g = parse_poly("x1^3+x1+1", 1, 2)
    assert sys.normal_form(g) == g


def test_normal_form_single_step():
    sys = IqSystem(PolyMap.parse(["x1^2"], 1, 2), 4)
    assert sys.normal_form(parse_poly("x1^4", 1, 2)) == parse_poly("x1^2", 1, 2)


def test_normal_form_full_reduction_with_division_oracle():
    sys = IqSystem(PolyMap.parse(["x1^2"], 1, 2), 4)
    g = parse_poly("x1^16", 1, 2)
    nf = sys.normal_form(g)
    assert nf == parse_poly("x1^2", 1, 2)
    # oracle: g - nf must be divisible by the generator x1^2 - x1^4
    diff = g + -nf
    gen = parse_poly("x1^2", 1, 2) + -parse_poly("x1^4", 1, 2)
    _, rem = univariate_divmod(dense_coeffs(diff), dense_coeffs(gen), 2)
    assert rem == []


def test_normal_form_idempotent_and_projective():
    rng = random.Random(9)
    sys = IqSystem(PolyMap.parse(["x1*x2", "x1+x2"], 2, 3), 9)
    for _ in range(30):
        g = MPoly(2, 3, {(rng.randrange(12), rng.randrange(12)): rng.randrange(3)
                         for _ in range(4)})
        nf = sys.normal_form(g)
        assert all(e < 9 for expo in nf.terms for e in expo)
        assert sys.normal_form(nf) == nf


def test_quotient_dimension_examples():
    assert IqSystem(PolyMap.parse(["x1^2"], 1, 2), 4).quotient_dimension() == 4
    assert IqSystem(PolyMap.parse(["x1*x2", "x1+x2"], 2, 3), 3).quotient_dimension() == 9
    assert IqSystem(PolyMap.parse(["x1"], 1, 2), 2).quotient_dimension() == 2


def test_iterate_congruence_examples():
    sys1 = IqSystem(PolyMap.parse(["x1^2"], 1, 2), 4)
    assert sys1.iterate_congruence_check(1)
    assert sys1.iterate_congruence_check(2)
    sys2 = IqSystem(PolyMap.parse(["x1+x2", "x1*x2"], 2, 2), 4)
    assert sys2.iterate_congruence_check(1)
    assert sys2.iterate_congruence_check(2)


def test_iterate_congruence_retains_no_more_memory_at_larger_j():
    # each step needs only the last pair of sides, so what a system holds
    # after its checks must not grow with j; keeping every iterate held
    # about 10 KB more per j here (tracemalloc, CPython 3.11)
    def retained(j):
        tracemalloc.start()
        try:
            system = IqSystem(PolyMap.parse(["x1^3+x1*x2+1", "x2^2+x1"], 2, 2), 8)
            assert system.iterate_congruence_check(j)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    small, large = retained(8), retained(32)
    assert large - small < 16 * 1024, (small, large)
    # an earlier j still gets its answer from the kept verdicts
    system = IqSystem(PolyMap.parse(["x1^3+x1*x2+1", "x2^2+x1"], 2, 2), 8)
    assert system.iterate_congruence_check(5)
    sides = system._sides
    assert system.iterate_congruence_check(3) and system._sides is sides


def test_iterate_congruence_instance_by_explicit_division():
    sys = IqSystem(PolyMap.parse(["x1+x2", "x1*x2"], 2, 2), 4)
    iterated = sys.map.iterate(2)
    g = iterated.coords[0] + -monomial(1, (16, 0), 2)
    assert multivariate_remainder(g, sys).is_zero()


def test_term_budget_enforced(monkeypatch):
    monkeypatch.setattr(poly, "DEFAULT_TERM_BUDGET", 2)
    sys = IqSystem(PolyMap.parse(["x1^2+x1+1"], 1, 2), 4)
    with pytest.raises(TermBudgetExceeded):
        sys.normal_form(parse_poly("x1^4", 1, 2))


def _draw_terms(draw, n, p, max_expo, min_expo=0):
    expo = st.tuples(*[st.integers(min_expo, max_expo)] * n)
    return draw(st.dictionaries(expo, st.integers(1, p - 1), min_size=1, max_size=3))


@st.composite
def _iq_cases(draw):
    """(n, p, Q, the map's term maps, then the term maps of g, a and b)."""
    n = draw(st.sampled_from([1, 2, 3]))
    # Q = p gives the narrowest packed fields
    p, Q = draw(st.sampled_from([(2, 2), (3, 3), (5, 5), (2, 4), (2, 8), (3, 9)]))
    coords = [{e: c for e, c in _draw_terms(draw, n, p, Q - 1).items() if sum(e) < Q}
              for _ in range(n)]
    # exponents of 2Q and above need chains of rewrites, each x_i^Q at a time
    g = _draw_terms(draw, n, p, 3 * Q, 2 * Q) | _draw_terms(draw, n, p, 3 * Q)
    return n, p, Q, coords, g, _draw_terms(draw, n, p, 2 * Q), _draw_terms(draw, n, p, 2 * Q)


@settings(max_examples=60, deadline=None)
@given(case=_iq_cases())
# total degree 37 > n(2Q - 2) = 8: the public path packs g into wider fields
@example(case=(2, 3, 3, [{(1, 1): 1, (0, 0): 2}, {(2, 0): 1, (0, 1): 1}],
               {(20, 17): 1, (9, 0): 2}, {(4, 1): 1}, {(2, 5): 2, (3, 3): 1}))
# Q = 2, n = 3: three fields of w = 4 bits
@example(case=(3, 2, 2,
               [{(0, 1, 0): 1}, {(1, 0, 0): 1, (0, 0, 1): 1}, {(0, 0, 0): 1, (1, 0, 0): 1}],
               {(6, 5, 4): 1, (4, 4, 6): 1, (1, 0, 0): 1}, {(3, 1, 2): 1},
               {(2, 2, 0): 1, (0, 0, 4): 1}))
def test_normal_form_and_product_match_division_oracle(case):
    n, p, Q, coords, g, a, b = case
    system = IqSystem(PolyMap([MPoly(n, p, f) for f in coords]), Q)
    g = MPoly(n, p, g)
    assert system.normal_form(g) == multivariate_remainder(g, system)
    a, b = MPoly(n, p, a), MPoly(n, p, b)
    assert system.normal_form(a * b) == multivariate_remainder(a * b, system)


@settings(max_examples=100, deadline=None)
@given(case=_iq_cases())
def test_composition_is_the_frobenius_map_of_the_quotient(case):
    # f_i = x_i^Q in A and g has F_p coefficients, so g(f_1, ..., f_n) = g(x_1^Q, ..., x_n^Q)
    # = g^Q: composition, the only route through the products, the power cache and the
    # grouping by key >> w, must give the Q-th power that _frob forms with no product
    n, p, Q, coords, *polys = case
    system = IqSystem(PolyMap([MPoly(n, p, f) for f in coords]), Q)
    for terms in polys:
        g = system._pack(system.normal_form(MPoly(n, p, terms)), system._layout[0])
        assert system._compose(g) == system._frob(g)


@pytest.mark.parametrize("n,p,Q,j", [
    (n, p, Q, j) for n in (1, 2, 3) for p in (2, 3, 5) for Q in (p, p * p) for j in (1, 2)
    if n == 1 or n * Q**j <= 100])  # the oracle's cost grows with Q^j in n > 1 variables
def test_congruence_sides_match_division_oracle(n, p, Q, j):
    # every valid system passes the congruence check, so its True alone
    # cannot catch wrong arithmetic: each side it keeps is checked instead
    rng = random.Random(f"{n} {p} {Q} {j}")
    below_q = [e for e in itertools.product(range(Q), repeat=n) if sum(e) < Q]
    for _ in range(3):
        pmap = PolyMap([MPoly(n, p, {e: rng.randrange(1, p) for e in
                                     rng.sample(below_q, rng.randint(1, min(3, len(below_q))))})
                        for _ in range(n)])
        system = IqSystem(pmap, Q)
        w = system._layout[0]
        for k in range(1, j + 1):
            assert system.iterate_congruence_check(k)
            iterates, frobenius = system._sides  # the sides of iterate k
            iterated = pmap.iterate(k)
            for i in range(n):
                power = monomial(1, tuple(Q**k if m == i else 0 for m in range(n)), p)
                assert system._unpack(iterates[i], w) == multivariate_remainder(
                    iterated.coords[i], system)
                assert system._unpack(frobenius[i], w) == multivariate_remainder(
                    power, system)


@pytest.mark.parametrize("n,p,Q,j", [
    (1, 2, 8, 3), (1, 3, 9, 2), (1, 5, 25, 2), (2, 2, 4, 3), (2, 3, 9, 1), (2, 5, 5, 2),
    (2, 7, 7, 2), (3, 3, 3, 2)])  # np(Q - 1) needs more bits than n(2Q - 2) at p, Q = 5, 7
def test_frobenius_side_multiplies_nothing(monkeypatch, n, p, Q, j):
    def refuse(*args):
        raise AssertionError("the Frobenius side formed a product")

    rng = random.Random(f"frob {n} {p} {Q} {j}")
    below_q = [e for e in itertools.product(range(Q), repeat=n) if sum(e) < Q]
    # f_1 carries x_n^(Q - 1): each rewrite of x_1^Q then grows x_n's exponent the most
    maps = [[{(0,) * (n - 1) + (Q - 1,): 1}] + [{} for _ in range(n - 1)]]
    maps += [[{e: rng.randrange(1, p) for e in rng.sample(below_q, min(3, len(below_q)))}
              for _ in range(n)] for _ in range(2)]
    for coords in maps:
        system = IqSystem(PolyMap([MPoly(n, p, f) for f in coords]), Q)
        monkeypatch.setattr(IqSystem, "_product", refuse)
        frobenius = [system._sides[1]]  # the variables, x_i^(Q^0)
        for _ in range(j):
            frobenius.append(tuple(system._frob(x) for x in frobenius[-1]))
        monkeypatch.undo()
        w = system._layout[0]
        for k in range(1, j + 1):
            for i in range(n):
                power = monomial(1, tuple(Q**k if m == i else 0 for m in range(n)), p)
                assert system._unpack(frobenius[k][i], w) == multivariate_remainder(
                    power, system)


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by Gauss-Jordan elimination; reduces `rows` in place."""
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(v - c * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("n,j", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_quotient_by_iterate_counts_quasi_fixed_points(n, j):
    # A/(f^(j)_i - x_i) contains x_i^(Q^j) - x_i, so it is reduced, and its
    # dimension Q^n - rank counts the a in F_(Q^j)^n with f(a) = Frob^m(a)
    p, m = 2, 2
    Q = p**m
    rng = random.Random(100 * n + j)
    basis = list(itertools.product(range(Q), repeat=n))
    below_q = [e for e in basis if sum(e) < Q]
    field = field_create(p, m * j)
    points = list(itertools.product(elements(field), repeat=n))
    for _ in range(6):
        pmap = PolyMap([MPoly(n, p, dict.fromkeys(rng.sample(below_q, rng.randint(1, 3)), 1))
                        for _ in range(n)])
        system = IqSystem(pmap, Q)
        iterated = pmap.iterate(j)
        gens = [system.normal_form(iterated.coords[i]) + -MPoly.var(i + 1, n, p)
                for i in range(n)]
        rows = []
        for b in basis:
            for gen in gens:
                reduced = system.normal_form(monomial(1, b, p) * gen)
                rows.append([reduced.terms.get(e, 0) for e in basis])
        count = sum(all(naive_eval(f, a) == naive_frobenius(a[i], m)
                        for i, f in enumerate(pmap.coords)) for a in points)
        assert Q**n - _rank_mod_p(rows, p) == count, pmap


def test_residues_vanish_at_quasi_fixed_points():
    # g - nf(g) lies in the ideal, so it evaluates to zero wherever the
    # generators do: at quasi-fixed points whose Frobenius power matches Q
    from quasifix.dynamics import enumerate_quasi_fixed

    rng = random.Random(17)
    ident = PolyMap.parse(["x1"], 1, 2)
    sys = IqSystem(ident, 4)  # Q = 2^2
    matching = [w for w in enumerate_quasi_fixed(ident, 3) if 2**w.m == 4]
    assert matching  # degree-2 points of the identity map carry m = 2
    for _ in range(20):
        g = MPoly(1, 2, {(rng.randrange(10),): rng.randrange(2) for _ in range(4)})
        residue = g + -sys.normal_form(g)
        for witness in matching:
            assert residue.evaluate(witness.point).is_zero()


# -- text form ---------------------------------------------------------------

def test_parse_and_format_roundtrip():
    rng = random.Random(13)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        nvars = rng.choice([1, 2, 3])
        f = MPoly(nvars, p, {tuple(rng.randrange(0, 4) for _ in range(nvars)): rng.randrange(p)
                             for _ in range(4)})
        assert parse_poly(f.to_text(), nvars, p) == f


def test_parse_examples():
    f = parse_poly("2*x1^2*x2+x1+3", 2, 5)
    assert f.terms == {(2, 1): 2, (1, 0): 1, (0, 0): 3}
    assert parse_poly("0", 2, 5).is_zero()
    assert parse_poly("x1*x1", 1, 3) == parse_poly("x1^2", 1, 3)
    assert parse_poly("7", 1, 5) == MPoly.const(2, 1, 5)
    # a space is dropped unless it separates two digits
    assert parse_poly(" x1 ^ 2 + 2 * x2 ", 2, 5) == parse_poly("x1^2+2*x2", 2, 5)
    with pytest.raises(PolyParseError, match="'x1 2'"):
        parse_poly("x1 2", 12, 5)


@pytest.mark.parametrize("bad", ["", "x0", "x3", "y1", "x1^-1", "x1++x2", "2**x1", "x1 x2", "*x1",
                                 "x1\n+1", "2\n", "x2^3\n", "x1^1 0", "2 3*x1"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(PolyParseError):
        parse_poly(bad, 2, 5)


@settings(max_examples=150, deadline=None)
@given(text=st.text(alphabet="x0129^*+ ") | st.text(), nvars=st.integers(1, 3),
       p=st.sampled_from([2, 3, 5]))
@example(text="1" * 5000, nvars=1, p=2)
@example(text="x1^" + "9" * 5000, nvars=1, p=2)
def test_parse_returns_poly_or_parse_error(text, nvars, p):
    try:
        f = parse_poly(text, nvars, p)
    except PolyParseError:
        return
    assert (f.nvars, f.p) == (nvars, p)


def test_polymap_parse_arity():
    with pytest.raises(PolyParseError):
        PolyMap.parse(["x1"], 2, 3)
