import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    entries,
    mat_inverse,
    mat_mul,
    mat_scale,
    naive_adj,
    naive_det,
    naive_eval,
    naive_is_scalar,
    naive_lift,
    naive_mat_mul,
    naive_normalized,
    tuple_frobenius,
)
from quasifix import matrep
from quasifix.freegroup import FreeEndo, Word, word_evaluate
from quasifix.gf import FieldError, field_create
from quasifix.matrep import (
    Mat2,
    MatTuple,
    ProjPoint,
    SingularMatrixError,
    find_periodic_orbit,
    pgl_dynamics_step,
    phi_lift_polynomials,
    pi_w,
    proj_step,
    random_projpoint,
    random_state,
    state_orbit,
    state_rows,
    trace_indices,
    trace_states,
)
from quasifix.poly import MPoly, PolyMap


def read_rows(field, rows):
    """The state of matrices given as coefficient rows, as the verifier reads it."""
    flat = [c for mat in rows for row in mat for c in row]
    return tuple(trace_states(field, trace_indices(flat, field.p, field.m), len(rows))[0])


def rand_mat(field, rng):
    return Mat2.from_entries(field, [field.from_int(rng.randrange(field.order))
                                     for _ in range(4)])


def identity(field):
    return Mat2.from_entries(field, (field.one(), field.zero(), field.zero(), field.one()))


def lift(phi, t):
    """The lifted endomorphism on a matrix tuple: pi_w of each image word."""
    return MatTuple(pi_w(w, t) for w in phi.images)


def flatten(mats):
    """Entry tuples in the coordinate order of phi_lift_polynomials."""
    return tuple(x for m in mats for x in m)


def rand_sl2(field, rng):
    """Random determinant-1 matrix as a product of elementary matrices."""
    one, zero = field.one(), field.zero()
    m = (one, zero, zero, one)
    for _ in range(4):
        x = field.from_int(rng.randrange(field.order))
        m = naive_mat_mul(m, (one, x, zero, one) if rng.random() < 0.5 else (one, zero, x, one))
    return Mat2.from_entries(field, m)


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
    adj, product = Word.parse("A", 1), Word.parse("ab", 2)
    for x, mx in zip(sample, mats):
        assert entries(mx) == x
        rows = state_rows(field, (mx.logs,))
        assert rows == (tuple(v.coeffs for v in x),)
        assert read_rows(field, rows) == (mx.logs,)
        assert entries(pi_w(adj, MatTuple((mx,)))) == naive_adj(x)
        assert mx.det() == naive_det(x)
        assert mx.det().is_zero() == naive_det(x).is_zero()
        assert mx.is_scalar() == naive_is_scalar(x)
        if naive_normalized(x) is None:
            with pytest.raises(SingularMatrixError):
                mx.normalized()
        else:
            assert entries(mx.normalized()) == naive_normalized(x)
            assert mx.normalized().normalized() == mx.normalized()
        for y, my in zip(sample, mats):
            assert entries(pi_w(product, MatTuple((mx, my)))) == naive_mat_mul(x, y)


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
    state = read_rows(field, rows)
    assert state_rows(field, state) == rows
    assert [entries(Mat2(field, logs)) for logs in state] == [
        tuple(field.element(r) for r in mat) for mat in rows]
    logs = st.integers(0, field.order - 1)  # order - 1 is the log of 0
    state = tuple(tuple(data.draw(logs) for _ in range(4)) for _ in range(k))
    assert read_rows(field, state_rows(field, state)) == state


# lane widths: one byte (256), two (2^8 + 1 .. 2^16: 251^2, 2^16), four (257^2,
# 2^20, 1021^2), with coefficients read by bytes() up to p = 256 and by array past it
LANE_FIELDS = [(2, 1), (5, 1), (3, 2), (2, 3), (7, 2), (2, 8), (3, 5), (2, 9), (251, 2),
               (256, 2), (2, 16), (65521, 1), (257, 2), (2, 20), (1021, 2), (1048573, 1)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_trace_indices_fold_in_range_rows_and_refuse_the_rest(data):
    # p need not be prime here: the fold is base-p digits, the range 0 <= c < p
    p, s = data.draw(st.sampled_from(LANE_FIELDS))
    n = data.draw(st.integers(0, 12))
    row = st.lists(st.integers(0, p - 1) | st.sampled_from([0, p - 1]), min_size=s, max_size=s)
    rows = [data.draw(row) for _ in range(n)]
    flat = [c for r in rows for c in r]
    assert list(trace_indices(flat, p, s)) == [sum(c * p**i for i, c in enumerate(r))
                                               for r in rows]
    if flat:
        flat[data.draw(st.integers(0, len(flat) - 1))] = data.draw(st.sampled_from(
            [-1, -p, p, p + 1] + [c for c in (255, 256, 2**16, 2**32, 2**64, 10**40) if c >= p]))
        assert trace_indices(flat, p, s) is None


def test_adjugate_and_cayley():
    f5 = field_create(5, 1)
    one = identity(f5)
    assert pi_w(Word.parse("A", 1), MatTuple((one,))) == one
    rng = random.Random(1)
    for _ in range(50):
        m = rand_mat(f5, rng)
        prod = pi_w(Word.parse("aB", 2), MatTuple((m, m)))  # m * adj(m)
        expected = mat_scale(one, m.det())
        assert prod == expected


def test_det_multiplicative():
    f7 = field_create(7, 1)
    rng = random.Random(2)
    for _ in range(50):
        a, b = rand_mat(f7, rng), rand_mat(f7, rng)
        assert pi_w(Word.parse("ab", 2), MatTuple((a, b))).det() == a.det() * b.det()


def test_pi_w_examples():
    f5 = field_create(5, 1)
    rng = random.Random(3)
    t = MatTuple((rand_mat(f5, rng), rand_mat(f5, rng)))
    a = t.mats[0]
    assert pi_w(Word.parse("a", 2), t) == a
    cancel = pi_w(Word(list((1,)) + list((-1,)), 2), t)  # unreduced input reduces
    assert cancel == identity(f5)
    # the formal a*adj(a) value, evaluated without free reduction
    direct = pi_w(Word.parse("aB", 2), MatTuple((a, a)))
    assert direct == mat_scale(identity(f5), a.det())


def test_pi_w_agrees_with_true_inverses_on_sl2():
    rng = random.Random(4)
    for p in (5, 7):
        field = field_create(p, 1)
        for _ in range(30):
            t = MatTuple((rand_sl2(field, rng), rand_sl2(field, rng)))
            for text in ("abA", "aBa", "ba", "AbaB"):
                w = Word.parse(text, 2)
                via_adj = pi_w(w, t)
                via_inv = word_evaluate(w, t.mats, mat_mul, mat_inverse, identity(field))
                assert via_adj == via_inv


def test_phi_lift_examples():
    f3 = field_create(3, 1)
    rng = random.Random(5)
    ident = FreeEndo.parse(["a", "b"], 2)
    t = MatTuple((rand_mat(f3, rng), rand_mat(f3, rng)))
    assert lift(ident, t) == t

    square = FreeEndo.parse(["aa"], 1)
    a = rand_mat(f3, rng)
    assert lift(square, MatTuple((a,))).mats == (mat_mul(a, a),)

    swapmix = FreeEndo.parse(["ab", "ba"], 2)
    a, b = t.mats
    assert lift(swapmix, t).mats == (mat_mul(a, b), mat_mul(b, a))


def test_phi_lift_polynomials_identity():
    ident = FreeEndo.parse(["a"], 1)
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
        mats = [entries(rand_mat(f5, rng)), entries(rand_mat(f5, rng))]
        symbolic = tuple(naive_eval(f, flatten(mats)) for f in pmap.coords)
        direct = flatten(naive_lift(phi, mats))
        assert symbolic == direct


def test_phi_lift_polynomials_agree_exhaustive_f2():
    f2 = field_create(2, 1)
    phi = FreeEndo.parse(["aa"], 1)
    pmap = phi_lift_polynomials(phi, 2)
    for code in range(16):
        mats = [tuple(f2.from_int((code >> i) & 1) for i in range(4))]
        symbolic = tuple(naive_eval(f, flatten(mats)) for f in pmap.coords)
        assert symbolic == flatten(naive_lift(phi, mats))


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
                assert lift(phi, tuple_frobenius(t, e)) == tuple_frobenius(lift(phi, t), e)


def test_normalize_commutes_with_dynamics():
    rng = random.Random(10)
    f7 = field_create(7, 1)
    phi = FreeEndo.parse(["ab", "ba"], 2)
    step = proj_step(phi, f7)  # takes unnormalized tuples as well
    for _ in range(30):
        a, b = rand_sl2(f7, rng), rand_sl2(f7, rng)
        scaled = MatTuple((mat_scale(a, f7.scalar(3)), mat_scale(b, f7.scalar(2))))
        assert step(MatTuple((a, b))._key) == step(scaled._key)


def test_identity_endo_every_point_period_one():
    f5 = field_create(5, 1)
    rng = random.Random(11)
    ident = FreeEndo.parse(["a", "b"], 2)
    for _ in range(10):
        h = random_projpoint(f5, 2, rng)
        res = find_periodic_orbit(ident, h, budget=100)
        assert res.found and res.period == 1 and res.point == h


def test_squaring_orbit_over_f7():
    f7 = field_create(7, 1)
    square = FreeEndo.parse(["aa"], 1)
    diag = Mat2.from_entries(f7, [f7.scalar(3), f7.zero(), f7.zero(), f7.one()])
    assert not diag.det().is_zero()
    start = ProjPoint(MatTuple((diag.normalized(),)))
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


# mixed fields are a FieldError, so that catching SingularMatrixError means
# only "not invertible"
def test_entries_from_another_field_are_a_field_error():
    f5, f7 = field_create(5, 1), field_create(7, 1)
    with pytest.raises(FieldError, match="entries belong to a different field") as caught:
        Mat2.from_entries(f5, [f5.from_int(1), f7.from_int(0), f5.from_int(0), f5.from_int(1)])
    assert not isinstance(caught.value, SingularMatrixError)


def test_tuple_components_over_different_fields_are_a_field_error():
    f5, f7 = field_create(5, 1), field_create(7, 1)
    rng = random.Random(0)
    mats = [random_projpoint(f, 1, rng).tuple.mats[0] for f in (f5, f7)]
    with pytest.raises(FieldError, match="tuple components over different fields") as caught:
        MatTuple(mats)
    assert not isinstance(caught.value, SingularMatrixError)


# -- the orbit-step kernel on states ------------------------------------------

def oracle_step(phi, point):
    """The lifted step entry by entry: each image word's value, normalized."""
    values = naive_lift(phi, [entries(m) for m in point.tuple.mats])
    if any(naive_det(v).is_zero() for v in values):
        raise SingularMatrixError("tuple has a singular component")
    return ProjPoint(MatTuple(Mat2.from_entries(point.tuple.field, naive_normalized(v))
                              for v in values))


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
    """(found, point, period, steps, reason) from a dict of visited points,
    and the cycle from point on.

    Brent's hare stops at index 2^j - 1 + period for the least j with
    2^j - 1 >= tail and 2^j >= period, then one pointer walks the tail from
    h0.
    """
    seen, cur = {}, h0
    while cur not in seen and len(seen) <= budget:
        seen[cur] = len(seen)
        cur = oracle_step(phi, cur)
    if cur not in seen:  # no repeat among budget + 1 points: 2 (tail + period) > budget
        return (False, None, 0, budget + 1, "budget"), []
    tail = seen[cur]
    period = len(seen) - tail
    power = 1
    while power - 1 < tail or power < period:
        power *= 2
    steps = power - 1 + period + tail
    if steps > budget:
        return (False, None, 0, budget + 1, "budget"), []
    return (True, cur, period, steps, ""), list(seen)[tail:]


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
    assert h0.tuple._key == random_state(field, phi.rank, random.Random(seed))
    if singular:  # invertible tuples stay invertible; a singular start is refused unstepped
        h0 = ProjPoint(MatTuple((Mat2(field, (0, 0, 0, 0)),) + h0.tuple.mats[1:]))
        with mock.patch.object(matrep, "_word", side_effect=AssertionError("stepped")):
            with pytest.raises(SingularMatrixError):
                pgl_dynamics_step(phi, h0)
            with pytest.raises(SingularMatrixError):
                find_periodic_orbit(phi, h0, budget)
        return
    # one step on states equals the entry-by-entry oracle and the object path
    step = proj_step(phi, field)
    stepped = step(h0.tuple._key)
    assert stepped == oracle_step(phi, h0).tuple._key
    assert pgl_dynamics_step(phi, h0).tuple._key == stepped
    res = find_periodic_orbit(phi, h0, budget)
    expected, expected_cycle = oracle_orbit(phi, h0, budget)
    assert (res.found, res.point, res.period, res.steps, res.reason) == expected
    # the search's walk on states is the same walk, with a state for the point
    cycle = []
    on_states = state_orbit(step, h0.tuple._key, budget, cycle)
    assert on_states._replace(point=None) == res._replace(point=None)
    assert on_states.point == (res.point.tuple._key if res.found else None)
    assert cycle == [x.tuple._key for x in expected_cycle]
