import itertools
import math
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import elements, naive_eval, naive_frobenius, oracle_quasi_fixed, witness_key_set
from quasifix import dynamics
from quasifix.dynamics import (
    DEFAULT_POINT_CAP,
    EnumerationCapExceeded,
    VarietySpec,
    check_degree_caps,
    containment_check,
    enumerate_quasi_fixed,
    find_quasi_fixed_avoiding,
)
from quasifix.freegroup import FreeEndo
from quasifix.gf import FieldError, field_create
from quasifix.matrep import phi_lift_polynomials
from quasifix.poly import MPoly, PolyError, PolyMap, parse_poly


def test_identity_map_witnesses_over_f2():
    ident = PolyMap.identity(1, 2)
    witnesses = list(enumerate_quasi_fixed(ident, 3))
    # every point is quasi-fixed at its minimal degree with minimal m = degree
    by_degree = {}
    for w in witnesses:
        by_degree.setdefault(w.field_degree, []).append(w)
        assert w.m == w.field_degree  # a = a^(2^m) first holds at m = deg(a)
    assert len(by_degree[1]) == 2
    assert len(by_degree[2]) == 2
    assert len(by_degree[3]) == 6
    assert len(witnesses) == 10


def test_frobenius_map_every_point_m_one():
    cube = PolyMap.parse(["x1^3"], 1, 3)
    witnesses = list(enumerate_quasi_fixed(cube, 3))
    assert all(w.m == 1 for w in witnesses)
    assert len(witnesses) == 3 + 6 + 24  # minimal-degree points of F_3, F_9, F_27


def test_collapsing_map_single_witness():
    pmap = PolyMap.parse(["x1*x2", "0"], 2, 2)
    witnesses = list(enumerate_quasi_fixed(pmap, 3))
    assert len(witnesses) == 1
    w = witnesses[0]
    assert w.field_degree == 1 and w.m == 1
    assert all(a.is_zero() for a in w.point)


def test_witnesses_verify_and_close_under_frobenius():
    for texts, p in [(["x1^2"], 3), (["x1*x2", "x1+x2"], 2), (["x1^2+x2", "x1"], 3)]:
        pmap = PolyMap.parse(texts, len(texts), p)
        witnesses = list(enumerate_quasi_fixed(pmap, 2))
        keys = witness_key_set(witnesses)
        for w in witnesses:
            assert all(naive_eval(f, w.point) == naive_frobenius(a, w.m)
                       for f, a in zip(pmap.coords, w.point))
            conj = tuple(a.frobenius(1) for a in w.point)
            conj_key = (w.field_degree, w.m, tuple(a.coeffs for a in conj))
            assert conj_key in keys


def test_enumeration_is_deterministic_and_sorted():
    pmap = PolyMap.parse(["x1^2", "x2"], 2, 3)
    first = [(w.field_degree, w.m, tuple(a.coeffs for a in w.point))
             for w in enumerate_quasi_fixed(pmap, 2)]
    second = [(w.field_degree, w.m, tuple(a.coeffs for a in w.point))
              for w in enumerate_quasi_fixed(pmap, 2)]
    assert first == second == sorted(first)


def test_agrees_with_bruteforce_oracle_spot():
    for texts, p in [(["x1^2"], 2), (["x1^2+x1"], 3), (["x1*x2", "x2^2"], 2),
                     (["x1+x2", "x1*x2"], 3), (["x1^3", "x2"], 5)]:
        pmap = PolyMap.parse(texts, len(texts), p)
        s_max = 2 if p == 5 else 3
        lib = witness_key_set(enumerate_quasi_fixed(pmap, s_max))
        assert lib == oracle_quasi_fixed(pmap, s_max)


@pytest.mark.parametrize("texts,p,s_max", [
    (["x1^3+x1"], 2, 4),              # f(1) = 1 + 1 cancels to 0
    (["x1*x2+1", "x2"], 2, 3),        # zero coordinates, constant term
    (["x1*x2", "x1+x2^2"], 2, 3),     # zero coordinates, no constant term
    (["1"], 3, 3),                    # constant maps
    (["2", "0"], 3, 2),
    (["x1^21+x1"], 2, 3),             # 21 is a multiple of q - 1 for q = 2, 4, 8
    (["x1^2*x2+2*x2", "x1+x2^3+1"], 3, 2),
], ids=["cancel", "zero-const", "zero-noconst", "const1", "const2", "exp-mult", "n2p3"])
def test_log_space_edge_cases_match_oracle(texts, p, s_max):
    pmap = PolyMap.parse(texts, len(texts), p)
    lib = witness_key_set(enumerate_quasi_fixed(pmap, s_max))
    assert lib == oracle_quasi_fixed(pmap, s_max)


def _ordered_keys(pmap, s_max):
    return [(w.field_degree, w.m, tuple(a.coeffs for a in w.point))
            for w in enumerate_quasi_fixed(pmap, s_max)]


def _assert_ordered_oracle_and_chunk_free(pmap, s_max):
    # the stream is the oracle's set in (s, m, coordinates) order, and a chunk
    # of 7 points, so that candidates straddle chunk seams, changes nothing
    keys = _ordered_keys(pmap, s_max)
    assert keys == sorted(oracle_quasi_fixed(pmap, s_max))
    with mock.patch.object(dynamics, "CHUNK", 7):
        assert _ordered_keys(pmap, s_max) == keys


@st.composite
def small_maps(draw):
    """Maps of A^n over F_p, n <= 3, whose terms use 0 to n of the variables."""
    n = draw(st.integers(1, 3))
    p = draw(st.sampled_from((2, 3, 5)))
    exponents = st.tuples(*[st.integers(0, 4)] * n)
    coords = [MPoly(n, p, draw(st.dictionaries(exponents, st.integers(1, p - 1), max_size=4)))
              for _ in range(n)]
    s_max = max(s for s in (1, 2, 3) if s == 1 or p ** (s * n) <= 512)
    return PolyMap(coords), s_max


@settings(max_examples=150, deadline=None)
@given(small_maps())
@example((PolyMap.parse(["x1*x2*x3+1", "0", "2"], 3, 3), 2))      # 3-variable term, zero, constant
@example((PolyMap.parse(["x1^2*x2^3*x3+x1*x3", "x2^3+x1*x2", "x3+1"], 3, 2), 3))
@example((PolyMap.parse(["x1^4+3*x2", "2*x1*x2^2+4"], 2, 5), 2))
@example((PolyMap.parse(["0"], 1, 5), 3))
# witnesses of mixed degree patterns, (2, 3) and (3, 6) at s = 6 and (2, 4, 4) at
# s = 4, where one orbit point per closed point depends on the coordinates before
@example((PolyMap.parse(["x1^2", "x2+x1^3*x2^4+x1^3*x2"], 2, 2), 6))
@example((PolyMap.parse(["x1^2+x2^3*x3", "x2", "x3^4*x1+x3^2"], 3, 2), 4))
def test_enumeration_order_matches_oracle_across_chunk_seams(case):
    _assert_ordered_oracle_and_chunk_free(*case)


@pytest.mark.parametrize("p,s,nv", [(p, s, nv) for p in (2, 3) for s in (4, 6) for nv in (1, 2, 3)
                                    if p ** (s * nv) <= DEFAULT_POINT_CAP])
def test_orbit_representatives_meet_each_closed_point_once(p, s, nv):
    field = field_create(p, s)
    n = field.order - 1
    by_degree = field.frobenius_tables()[1]
    # g^x lies in F_{p^d} iff (p^d - 1) x = 0 mod n; the log n of 0 lies in F_p
    degree = [1 if x == n else min(d for d in range(1, s + 1)
                                   if s % d == 0 and x * (p**d - 1) % n == 0)
              for x in range(n + 1)]
    exact = bytes(math.lcm(*(degree[x] for x in point)) == s
                  for point in itertools.product(range(n + 1), repeat=nv))
    hits, reps = bytearray(len(exact)), 0
    for degs in itertools.product(by_degree, repeat=nv):
        if math.lcm(*degs) == s:
            for point in itertools.product(*dynamics._orbit_representatives(by_degree, degs)):
                reps += 1
                for j in range(s):
                    index = 0
                    for x in point:  # the Frobenius conjugate Frob^j of the point
                        index = index * (n + 1) + (x if x == n else x * p**j % n)
                    hits[index] += 1
    assert reps * s == sum(exact)
    assert hits == exact


@pytest.mark.parametrize("image", ["aa", "aaa", "A"])
def test_lifted_matrix_map_order_matches_oracle_across_chunk_seams(image):
    pmap = phi_lift_polynomials(FreeEndo.parse([image], 1), 2)
    assert pmap.nvars == 4
    _assert_ordered_oracle_and_chunk_free(pmap, 2)


def test_scan_memory_does_not_grow_with_the_candidates():
    # one point per Frobenius orbit: 672 candidates at degree 6 and 8,160 at
    # degree 8; the scan holds one chunk of them at a time, so with chunks of
    # 256, which both degrees fill, its peak barely moves
    pmap = PolyMap.parse(["x1^3+x2", "x1*x2+1"], 2, 2)

    def peak(s_max):
        list(enumerate_quasi_fixed(pmap, s_max))  # fields and tables are kept
        tracemalloc.start()
        try:
            for _ in enumerate_quasi_fixed(pmap, s_max):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with mock.patch.object(dynamics, "CHUNK", 256):
        assert peak(8) <= 2 * peak(6)


def test_variety_membership_examples():
    f5 = field_create(5, 1)
    empty = VarietySpec()
    assert empty.membership((f5.scalar(3), f5.scalar(1)))
    v = VarietySpec.parse(["x2"], 2, 5)
    assert v.membership((f5.scalar(5), f5.zero()))
    v2 = VarietySpec.parse(["x1^2", "x2+4"], 2, 5)
    assert v2.membership((f5.zero(), f5.one()))
    assert not v2.membership((f5.one(), f5.one()))


def test_variety_membership_rejects_wrong_arity():
    f5 = field_create(5, 1)
    v = VarietySpec.parse(["x1^2", "x2+4"], 2, 5)
    with pytest.raises(PolyError, match="variety expects 2"):
        v.membership((f5.zero(),))
    with pytest.raises(PolyError, match="variety expects 2"):
        v.membership((f5.zero(), f5.one(), f5.one()))


def test_containment_collapsing_map():
    pmap = PolyMap.parse(["x1*x2", "0"], 2, 2)
    v = VarietySpec.parse(["x1", "x2"], 2, 2)
    report = containment_check(pmap, v, 3)
    assert report.ok and report.checked == 1


def test_containment_dominant_map_vacuous():
    pmap = PolyMap.parse(["x1^2"], 1, 3)
    report = containment_check(pmap, VarietySpec(), 3)
    assert report.ok and report.checked > 0


def test_containment_flags_wrong_variety():
    ident = PolyMap.identity(1, 2)
    wrong = VarietySpec.parse(["x1+1"], 1, 2)  # the line x = 1 over F2
    report = containment_check(ident, wrong, 2)
    assert not report.ok
    assert any(all(a.is_zero() for a in w.point) for w in report.violations)


def test_avoiding_identity_map():
    ident = PolyMap.identity(1, 3)
    w_spec = parse_poly("x1", 1, 3)
    witness = find_quasi_fixed_avoiding(ident, VarietySpec(), w_spec, 3)
    assert witness is not None
    assert witness.field_degree == 1 and witness.m == 1
    assert witness.point[0] == field_create(3, 1).one()


def test_avoiding_frobenius_map():
    frob = PolyMap.parse(["x1^3"], 1, 3)
    witness = find_quasi_fixed_avoiding(frob, VarietySpec(), parse_poly("x1", 1, 3), 3)
    assert witness is not None and witness.m == 1 and witness.field_degree == 1


def test_avoiding_squaring_map_needs_degree_four():
    # f(a) = a^2 = a^(3^m) with a outside {0, 1} first happens over F_81:
    # a^25 = 1 there, i.e. a is a nontrivial fifth root of unity (m = 3)
    squaring = PolyMap.parse(["x1^2"], 1, 3)
    w_spec = parse_poly("x1^2+2*x1", 1, 3)  # vanishes exactly on {0, 1}
    assert find_quasi_fixed_avoiding(squaring, VarietySpec(), w_spec, 3) is None
    witness = find_quasi_fixed_avoiding(squaring, VarietySpec(), w_spec, 4)
    assert witness is not None
    assert witness.field_degree == 4 and witness.m == 3
    a = witness.point[0]
    assert a**5 == a.field.one() and a != a.field.one()
    # independent re-verification of the defining identity
    assert naive_eval(squaring.coords[0], witness.point) == a.frobenius(3)


def test_bezout_bound_univariate():
    # distinct solutions of f(x) = x^Q over the closure are at most Q
    pmap = PolyMap.parse(["x1^3+x1"], 1, 2)
    Q = 8
    count = 0
    for s in range(1, 7):
        field = field_create(2, s)
        for a in elements(field):
            # count each closure point once, at its minimal field degree
            from quasifix.gf import min_subfield_degree
            if min_subfield_degree(a) != s:
                continue
            if naive_eval(pmap.coords[0], (a,)) == a ** Q:
                count += 1
    assert count <= Q


def test_enumeration_caps():
    # DEFAULT_POINT_CAP = 2^20 points: 5^(3*3) at s = 3
    pmap = PolyMap.parse(["x1^2", "x2", "x3"], 3, 5)
    with pytest.raises(EnumerationCapExceeded, match="points"):
        list(enumerate_quasi_fixed(pmap, 3))
    single = PolyMap.parse(["x1^2"], 1, 1031)  # 1031^2 > 2^20
    with pytest.raises(EnumerationCapExceeded, match="field order 1031\\^2 exceeds cap 1048576"):
        list(enumerate_quasi_fixed(single, 2))


def test_a_huge_degree_is_refused_without_building_its_order():
    # 3^(10^7) has 16 million bits: built before it was compared with the cap,
    # it took each refusal 2.5 s
    refusal = f"field order 3\\^{10**7} exceeds cap 1048576"
    start = time.perf_counter()
    with pytest.raises(FieldError, match=refusal):
        field_create(3, 10**7)
    with pytest.raises(EnumerationCapExceeded, match=refusal):
        check_degree_caps(PolyMap.parse(["x1"], 1, 3), 10**7)
    assert time.perf_counter() - start < 0.5


def test_degree_caps_admit_exactly_2_20_points():
    # each cap admits its own value: --p 2 --n 1 --smax 20 is inside both,
    # and n = 2 at degree 10 is inside the point cap only through <=; the
    # check enumerates nothing
    line, plane = PolyMap.parse(["x1"], 1, 2), PolyMap.parse(["x1", "x2"], 2, 2)
    check_degree_caps(line, 20)
    with pytest.raises(EnumerationCapExceeded, match="field order 2\\^21"):
        check_degree_caps(line, 21)
    check_degree_caps(plane, 10)
    with pytest.raises(EnumerationCapExceeded, match="2\\^22 points"):
        check_degree_caps(plane, 11)


def test_enumeration_rejects_smax_below_one():
    pmap = PolyMap.parse(["x1^2"], 1, 3)
    for s_max in (0, -3):
        with pytest.raises(PolyError, match=">= 1"):
            next(enumerate_quasi_fixed(pmap, s_max))


def test_witness_json_shape():
    pmap = PolyMap.parse(["x1^2"], 1, 3)
    w = next(iter(enumerate_quasi_fixed(pmap, 2)))
    d = w.to_dict()
    assert set(d) == {"p", "s", "m", "point"}
    assert d["p"] == 3 and isinstance(d["point"], list)
