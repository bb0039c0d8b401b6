import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    entries,
    mat_inverse,
    mat_scale,
    naive_adj,
    naive_det,
    naive_is_scalar,
    naive_mat_mul,
    naive_normalized,
    naive_word_value,
    tuple_frobenius,
)
from quasifix.freegroup import FreeEndo, Word, word_evaluate
from quasifix.gf import field_create
from quasifix.matrep import (
    Mat2,
    MatTuple,
    ProjPoint,
    SingularMatrixError,
    find_periodic_orbit,
    pgl_dynamics_step,
    phi_lift,
    phi_lift_polynomials,
    pi_w,
    proj_normalize,
    proj_step,
    random_projpoint,
    state_from_rows,
    state_rows,
)
from quasifix.poly import MPoly, PolyMap


def rand_mat(field, rng):
    return Mat2.from_entries(field, [field.from_int(rng.randrange(field.order))
                                     for _ in range(4)])


def flatten(t):
    """Matrix entries in the coordinate order of phi_lift_polynomials."""
    return tuple(x for m in t.mats for x in entries(m))


def rand_sl2(field, rng):
    """Random determinant-1 matrix as a product of elementary matrices."""
    m = Mat2.identity(field)
    for _ in range(4):
        x = field.from_int(rng.randrange(field.order))
        if rng.random() < 0.5:
            e = Mat2.from_entries(field, [field.one(), x, field.zero(), field.one()])
        else:
            e = Mat2.from_entries(field, [field.one(), field.zero(), x, field.one()])
        m = m * e
    return m


def oracle_sample(field, rng):
    """Matrices as entry tuples: zero entries, zero rows, the zero matrix,
    scalars and singular ones first, then seeded random ones."""
    zero, one = field.zero(), field.one()
    x = field.from_int(field.order - 1)
    fixed = [(zero, zero, zero, zero), (one, zero, zero, one), (x, zero, zero, x),
             (zero, zero, x, one), (x, one, zero, zero), (zero, x, zero, zero),
             (zero, zero, zero, x), (x, x, x, x), (zero, one, x, zero)]
    return fixed + [tuple(field.from_int(rng.randrange(field.order)) for _ in range(4))
                    for _ in range(9)]


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                 (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_log_encoding_matches_naive_oracle(p, m):
    # every field with q <= 32 for p in {2, 3, 5}; p = 2 is where log(-1) = 0
    field = field_create(p, m)
    sample = oracle_sample(field, random.Random(f"mat2:{p}:{m}"))
    mats = [Mat2.from_entries(field, x) for x in sample]
    for x, mx in zip(sample, mats):
        assert entries(mx) == x
        assert state_rows(field, (mx.logs,)) == (tuple(v.coeffs for v in x),)
        assert state_from_rows(field, state_rows(field, (mx.logs,))) == (mx.logs,)
        assert entries(mx.adj()) == naive_adj(x)
        assert mx.det() == naive_det(x)
        assert mx.det().is_zero() == naive_det(x).is_zero()
        assert mx.is_scalar() == naive_is_scalar(x)
        if naive_normalized(x) is None:
            with pytest.raises(SingularMatrixError):
                mx.normalized()
        else:
            assert entries(mx.normalized()) == naive_normalized(x)
        if naive_det(x).is_zero():
            with pytest.raises(SingularMatrixError):
                proj_normalize(MatTuple((mx,)))
        else:
            assert entries(proj_normalize(MatTuple((mx,))).tuple[0]) == naive_normalized(x)
        for y, my in zip(sample, mats):
            assert entries(mx * my) == naive_mat_mul(x, y)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_state_rows_round_trip(data):
    # rows -> logs -> rows and logs -> rows -> logs are identities, and each
    # row is the coefficient vector of the entry its log stands for
    p, m = data.draw(st.sampled_from([(2, 1), (5, 1), (3, 2), (2, 3), (3, 3), (7, 2)]))
    field = field_create(p, m)
    k = data.draw(st.integers(1, 3))
    row = st.lists(st.integers(0, p - 1), min_size=m, max_size=m).map(tuple)
    rows = tuple(tuple(data.draw(row) for _ in range(4)) for _ in range(k))
    state = state_from_rows(field, rows)
    assert state_rows(field, state) == rows
    assert [entries(Mat2(field, logs)) for logs in state] == [
        tuple(field.element(r) for r in mat) for mat in rows]
    logs = st.integers(0, field.order - 1)  # order - 1 is the log of 0
    state = tuple(tuple(data.draw(logs) for _ in range(4)) for _ in range(k))
    assert state_from_rows(field, state_rows(field, state)) == state


def test_adjugate_and_cayley():
    f5 = field_create(5, 1)
    assert Mat2.identity(f5).adj() == Mat2.identity(f5)
    rng = random.Random(1)
    for _ in range(50):
        m = rand_mat(f5, rng)
        prod = m * m.adj()
        expected = mat_scale(Mat2.identity(f5), m.det())
        assert prod == expected


def test_det_multiplicative():
    f7 = field_create(7, 1)
    rng = random.Random(2)
    for _ in range(50):
        a, b = rand_mat(f7, rng), rand_mat(f7, rng)
        assert (a * b).det() == a.det() * b.det()


def test_pi_w_examples():
    f5 = field_create(5, 1)
    rng = random.Random(3)
    t = MatTuple((rand_mat(f5, rng), rand_mat(f5, rng)))
    assert pi_w(Word.parse("a", 2), t) == t[0]
    cancel = pi_w(Word(list((1,)) + list((-1,)), 2), t)  # unreduced input reduces
    assert cancel == Mat2.identity(f5)
    # the formal a*adj(a) value, evaluated without free reduction
    direct = t[0] * t[0].adj()
    assert direct == mat_scale(Mat2.identity(f5), t[0].det())


def test_pi_w_agrees_with_true_inverses_on_sl2():
    rng = random.Random(4)
    for p in (5, 7):
        field = field_create(p, 1)
        for _ in range(30):
            t = MatTuple((rand_sl2(field, rng), rand_sl2(field, rng)))
            for text in ("abA", "aBa", "ba", "AbaB"):
                w = Word.parse(text, 2)
                via_adj = pi_w(w, t)
                via_inv = word_evaluate(w, t.mats, lambda x, y: x * y,
                                        mat_inverse, Mat2.identity(field))
                assert via_adj == via_inv


def test_phi_lift_examples():
    f3 = field_create(3, 1)
    rng = random.Random(5)
    ident = FreeEndo.identity(2)
    t = MatTuple((rand_mat(f3, rng), rand_mat(f3, rng)))
    assert phi_lift(ident, t) == t

    square = FreeEndo.parse(["aa"], 1)
    single = MatTuple((rand_mat(f3, rng),))
    assert phi_lift(square, single)[0] == single[0] * single[0]

    swapmix = FreeEndo.parse(["ab", "ba"], 2)
    lifted = phi_lift(swapmix, t)
    assert lifted[0] == t[0] * t[1]
    assert lifted[1] == t[1] * t[0]


def test_phi_lift_polynomials_identity():
    ident = FreeEndo.identity(1)
    pmap = phi_lift_polynomials(ident, 3)
    assert pmap == PolyMap.identity(4, 3)


def test_phi_lift_polynomials_symbolic_square():
    square = FreeEndo.parse(["aa"], 1)
    pmap = phi_lift_polynomials(square, 5)
    # first coordinate of the symbolic square: a11^2 + a12*a21
    x = [MPoly.var(i, 4, 5) for i in range(1, 5)]
    assert pmap.coords[0] == x[0] * x[0] + x[1] * x[2]
    assert pmap.coords[1] == x[0] * x[1] + x[1] * x[3]


def test_phi_lift_polynomials_agree_pointwise_random():
    rng = random.Random(6)
    f5 = field_create(5, 1)
    phi = FreeEndo.parse(["ab", "bA"], 2)
    pmap = phi_lift_polynomials(phi, 5)
    for _ in range(100):
        t = MatTuple((rand_mat(f5, rng), rand_mat(f5, rng)))
        symbolic = pmap.apply(flatten(t))
        direct = flatten(phi_lift(phi, t))
        assert symbolic == direct


def test_phi_lift_polynomials_agree_exhaustive_f2():
    f2 = field_create(2, 1)
    phi = FreeEndo.parse(["aa"], 1)
    pmap = phi_lift_polynomials(phi, 2)
    for code in range(16):
        entries = [f2.from_int((code >> i) & 1) for i in range(4)]
        t = MatTuple((Mat2.from_entries(f2, entries),))
        assert pmap.apply(flatten(t)) == flatten(phi_lift(phi, t))


def test_frobenius_tuple_prime_field_fixed():
    f5 = field_create(5, 1)
    rng = random.Random(7)
    t = MatTuple((rand_mat(f5, rng), rand_mat(f5, rng)))
    assert tuple_frobenius(t, 1) == t


def test_frobenius_equivariance():
    rng = random.Random(8)
    phi = FreeEndo.parse(["ab", "bA"], 2)
    for p, m in ((2, 2), (3, 2)):
        field = field_create(p, m)
        for _ in range(30):
            t = MatTuple((rand_mat(field, rng), rand_mat(field, rng)))
            for e in (1, 2):
                assert phi_lift(phi, tuple_frobenius(t, e)) == tuple_frobenius(phi_lift(phi, t), e)


def test_proj_normalize_examples():
    f5 = field_create(5, 1)
    two = f5.scalar(2)
    doubled = mat_scale(Mat2.identity(f5), two)
    point = proj_normalize(MatTuple((doubled,)))
    assert point.tuple[0] == Mat2.identity(f5)

    rng = random.Random(9)
    for _ in range(30):
        t = MatTuple((rand_sl2(f5, rng), rand_sl2(f5, rng)))
        once = proj_normalize(t)
        again = proj_normalize(once.tuple)
        assert once == again


def test_proj_normalize_rejects_singular():
    f5 = field_create(5, 1)
    singular = Mat2.from_entries(f5, [f5.one(), f5.zero(), f5.zero(), f5.zero()])
    with pytest.raises(SingularMatrixError):
        proj_normalize(MatTuple((singular,)))


def test_normalize_commutes_with_dynamics():
    rng = random.Random(10)
    f7 = field_create(7, 1)
    phi = FreeEndo.parse(["ab", "ba"], 2)
    for _ in range(30):
        t = MatTuple((rand_sl2(f7, rng), rand_sl2(f7, rng)))
        scaled = MatTuple((mat_scale(t[0], f7.scalar(3)), mat_scale(t[1], f7.scalar(2))))
        assert proj_normalize(phi_lift(phi, t)) == proj_normalize(phi_lift(phi, scaled))


def test_identity_endo_every_point_period_one():
    f5 = field_create(5, 1)
    rng = random.Random(11)
    ident = FreeEndo.identity(2)
    for _ in range(10):
        h = random_projpoint(f5, 2, rng)
        res = find_periodic_orbit(ident, h, budget=100)
        assert res.found and res.period == 1 and res.point == h


def test_squaring_orbit_over_f7():
    f7 = field_create(7, 1)
    square = FreeEndo.parse(["aa"], 1)
    start = proj_normalize(MatTuple((Mat2.from_entries(
        f7, [f7.scalar(3), f7.zero(), f7.zero(), f7.one()]),)))
    res = find_periodic_orbit(square, start, budget=1000)
    assert res.found
    point, n = res.point, res.period
    # exact periodicity
    cur = point
    for _ in range(n):
        cur = pgl_dynamics_step(square, cur)
    assert cur == point
    # minimality: no proper divisor of n closes the cycle
    for d in range(1, n):
        if n % d == 0:
            cur = point
            for _ in range(d):
                cur = pgl_dynamics_step(square, cur)
            assert cur != point
    # hand iteration: diag(3,1) ~ diag(1,5); 5^2=4, 4^2=2, 2^2=4: cycle (4 2)
    assert n == 2


def test_orbit_budget_exhaustion():
    f7 = field_create(7, 1)
    phi = FreeEndo.parse(["ab", "ba"], 2)
    rng = random.Random(12)
    h = random_projpoint(f7, 2, rng)
    res = find_periodic_orbit(phi, h, budget=1)
    assert not res.found and res.reason == "budget" and res.point is None


def test_projpoint_hash_consistency():
    f5 = field_create(5, 1)
    rng = random.Random(13)
    pts = [random_projpoint(f5, 2, rng) for _ in range(20)]
    for p in pts:
        assert ProjPoint(p.tuple) == p
        assert hash(ProjPoint(p.tuple)) == hash(p)


# -- the orbit-step kernel on states ------------------------------------------

def oracle_step(phi, point):
    """The lifted step through objects: normalize the lifted tuple."""
    return proj_normalize(phi_lift(phi, point.tuple))


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


def oracle_orbit(phi, h0, budget):
    """(found, point, period, steps, reason) from a dict of visited points.

    Brent's hare stops at index 2^j - 1 + period for the least j with
    2^j - 1 >= tail and 2^j >= period, then both pointers walk period + 2 tail
    more steps; a singular value at index i costs i + 1 steps.
    """
    seen, cur = {}, h0
    while cur not in seen and len(seen) <= budget:
        seen[cur] = len(seen)
        try:
            cur = oracle_step(phi, cur)
        except SingularMatrixError:
            if len(seen) > budget:
                break
            return False, None, 0, len(seen), "singular"
    if cur not in seen:  # no repeat among budget + 1 points: 2 (tail + period) > budget
        return False, None, 0, budget + 1, "budget"
    tail = seen[cur]
    period = len(seen) - tail
    power = 1
    while power - 1 < tail or power < period:
        power *= 2
    steps = power - 1 + 2 * period + 2 * tail
    if steps > budget:
        return False, None, 0, budget + 1, "budget"
    return True, cur, period, steps, ""


KERNEL_FIELDS = [(5, 1), (3, 2), (2, 3), (3, 3)]  # F_8: log(-1) = 0


@st.composite
def endos(draw):
    rank = draw(st.integers(1, 3))
    letters = st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)])
    return FreeEndo([Word(draw(st.lists(letters, max_size=4)), rank) for _ in range(rank)])


@settings(max_examples=80, deadline=None)
@given(phi=endos(), pm=st.sampled_from(KERNEL_FIELDS), seed=st.integers(0, 2**32),
       budget=st.sampled_from([5, 60, 600]), singular=st.sampled_from([False] * 3 + [True]))
def test_kernel_matches_object_oracle(phi, pm, seed, budget, singular):
    field = field_create(*pm)
    h0 = random_projpoint(field, phi.rank, random.Random(seed))
    assert h0 == oracle_projpoint(field, phi.rank, random.Random(seed))
    if singular:  # invertible tuples stay invertible; a singular start leaves the locus
        h0 = ProjPoint(MatTuple((Mat2(field, (0, 0, 0, 0)),) + h0.tuple.mats[1:]))
    # one step on states equals the object path and the entry-by-entry oracle
    values = [naive_word_value(w, [entries(m) for m in h0.tuple.mats]) for w in phi.images]
    step = proj_step(phi, field)
    if any(naive_det(v).is_zero() for v in values):
        with pytest.raises(SingularMatrixError):
            step(h0.tuple._key)
        with pytest.raises(SingularMatrixError):
            oracle_step(phi, h0)
    else:
        stepped = step(h0.tuple._key)
        assert stepped == oracle_step(phi, h0).tuple._key
        assert pgl_dynamics_step(phi, h0).tuple._key == stepped
        assert [entries(Mat2(field, x)) for x in stepped] == [naive_normalized(v) for v in values]
    res = find_periodic_orbit(phi, h0, budget)
    assert (res.found, res.point, res.period, res.steps, res.reason) == \
        oracle_orbit(phi, h0, budget)
