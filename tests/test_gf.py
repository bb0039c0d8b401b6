import hashlib
import itertools
import math
import time
import tracemalloc
import weakref

import pytest

from oracles import elements, naive_frobenius, naive_is_irreducible, naive_min_irreducible
from quasifix import gf
from quasifix.gf import (
    DEFAULT_ORDER_CAP,
    FieldError,
    FqField,
    field_create,
    is_prime,
    min_subfield_degree,
    power_within,
)


def naive_has_root(coeffs, p):
    """Oracle: evaluate a univariate F_p polynomial at every residue."""
    for a in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % p
        if acc == 0:
            return True
    return False


def test_prime_field_modulus_is_x():
    f2 = field_create(2, 1)
    assert (f2.p, f2.m, f2.modulus) == (2, 1, (0, 1))


def test_f4_modulus_unique_quadratic():
    # oracle: among the 4 monic quadratics over F2 only x^2+x+1 lacks a root
    irreducible = [
        (c0, c1, 1)
        for c0 in range(2)
        for c1 in range(2)
        if not naive_has_root((c0, c1, 1), 2)
    ]
    assert irreducible == [(1, 1, 1)]
    assert field_create(2, 2).modulus == (1, 1, 1)


def test_f25_modulus_first_rootless_quadratic():
    # oracle: scan candidates in the same deterministic order as field_create
    expected = None
    for code in range(25):
        cand = (code % 5, code // 5, 1)
        if not naive_has_root(cand, 5):
            expected = cand
            break
    assert expected == (2, 0, 1)  # x^2 + 2
    assert field_create(5, 2).modulus == expected


def test_field_create_errors():
    with pytest.raises(FieldError):
        field_create(4, 1)
    with pytest.raises(FieldError):
        field_create(2, 0)
    with pytest.raises(FieldError, match="field order 2\\^21 exceeds cap 1048576"):
        field_create(2, 21)  # 2^21 over the cap, which no caller can raise
    with pytest.raises(FieldError, match="field order 1031\\^2 exceeds cap 1048576"):
        field_create(1031, 2)


def test_prime_field_inverse():
    f5 = field_create(5, 1)
    two = f5.scalar(2)
    assert two.inv() == f5.scalar(3)
    assert (two * two.inv()) == f5.one()
    with pytest.raises(ZeroDivisionError):
        f5.zero().inv()


def test_f4_generator_square():
    f4 = field_create(2, 2)
    t = f4.element([0, 1])
    assert t * t == f4.element([1, 1])  # reduce t^2 by t^2+t+1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4), (5, 2)])
def test_lagrange_pow(p, m):
    field = field_create(p, m)
    for a in elements(field):
        if not a.is_zero():
            assert a ** (field.order - 1) == field.one()


def test_field_mismatch_rejected():
    f4 = field_create(2, 2)
    f2 = field_create(2, 1)
    with pytest.raises(FieldError):
        f4.element([0, 1]) + f2.one()  # type: ignore[operator]


def test_frobenius_fixes_prime_field():
    f7 = field_create(7, 1)
    for a in elements(f7):
        assert a.frobenius(1) == a


def test_frobenius_conjugate_in_f4():
    f4 = field_create(2, 2)
    t = f4.element([0, 1])
    assert t.frobenius(1) == f4.element([1, 1])


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3)])
def test_frobenius_composition_law(p, m):
    field = field_create(p, m)
    for a in elements(field):
        for i in range(3):
            for j in range(3):
                assert a.frobenius(i).frobenius(j) == a.frobenius(i + j)


def test_enumeration_order_and_count():
    f2 = field_create(2, 1)
    assert [a.coeffs for a in elements(f2)] == [(0,), (1,)]
    f4 = field_create(2, 2)
    elems = elements(f4)
    assert len(elems) == 4
    assert elems[0] == f4.zero()
    assert elems[-1] == f4.element([1, 1])
    for p, m in [(3, 1), (2, 3), (5, 2)]:
        field = field_create(p, m)
        seen = elements(field)
        assert len(seen) == p**m == len(set(seen))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3),
                                 (2, 4), (5, 2)])
def test_field_axioms_exhaustive_small(p, m):
    field = field_create(p, m)
    elems = elements(field)
    zero, one = field.zero(), field.one()
    for a in elems:
        assert a + zero == a and a * one == a
        assert a + (zero - a) == zero
        if not a.is_zero():
            assert a * a.inv() == one
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (5, 2), (2, 4)])
def test_frobenius_is_automorphism_fixing_prime_field(p, m):
    field = field_create(p, m)
    elems = elements(field)
    for a in elems:
        for b in elems:
            assert (a + b).frobenius(1) == a.frobenius(1) + b.frobenius(1)
            assert (a * b).frobenius(1) == a.frobenius(1) * b.frobenius(1)
    fixed = [a for a in elems if a.frobenius(1) == a]
    prime_field = [field.scalar(c) for c in range(p)]
    assert sorted(a.to_int() for a in fixed) == sorted(a.to_int() for a in prime_field)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (2, 6), (3, 2), (5, 2), (7, 2), (3, 3)])
def test_frobenius_m_is_identity(p, m):
    field = field_create(p, m)
    for a in elements(field):
        assert a.frobenius(m) == a


def test_min_subfield_degree():
    f16 = field_create(2, 4)
    assert min_subfield_degree(f16.zero()) == 1
    assert min_subfield_degree(f16.one()) == 1
    degrees = sorted(min_subfield_degree(a) for a in elements(f16))
    # F16 = 2 prime-field elements, 2 of degree 2, 12 of degree 4
    assert degrees.count(1) == 2 and degrees.count(2) == 2 and degrees.count(4) == 12


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_agrees_with_trial_division():
    for n in range(10**5):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))), n
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the primes up to 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)
    with pytest.raises(FieldError, match="not decided"):
        is_prime(2**89 - 1)


def test_field_create_checks_the_cap_before_primality():
    with pytest.raises(FieldError, match="exceeds cap"):
        field_create(10**18 + 3, 1)
    with pytest.raises(FieldError, match="exceeds cap"):
        field_create(2**89 - 1, 1)


def test_power_within_is_the_comparison_it_names():
    # negative p included: a negative power is within every cap it passes in size
    caps = (-2**20 - 1, -2**20, -9, -1, 0, 1, 8, 9, 2**20 - 1, 2**20, 2**20 + 1)
    for p, e, cap in itertools.product(range(-40, 41), range(25), caps):
        assert power_within(p, e, cap) == (p**e <= cap), (p, e, cap)


def test_field_create_shares_one_field_per_p_m(monkeypatch):
    assert field_create(3, 4) is field_create(3, 4)
    f1024 = field_create(2, 10)
    f1024.log_tables()
    with monkeypatch.context() as patched:
        patched.setattr(gf, "DEFAULT_ORDER_CAP", 512)
        with pytest.raises(FieldError, match="field order 2\\^10 exceeds cap 512"):
            field_create(2, 10)  # a kept field is still checked against the cap
    assert field_create(2, 10) is f1024


def test_unshared_fields_compare_by_modulus():
    # the irreducibility test builds rings outside field_create's keeping
    kept = field_create(2, 3)
    twin = FqField(2, 3, kept.modulus)
    assert twin is not kept and twin == kept and kept == twin
    assert hash(twin) == hash(kept)
    assert twin.element([1, 1, 0]) == kept.element([1, 1, 0])
    assert FqField(2, 3, (1, 0, 1, 1)) != kept  # the other irreducible cubic


def test_kept_fields_bounded_by_default_cap():
    # their log tables take at most 12 bytes per element (6 when q <= 2^16 and
    # p < 2^15), so this bounds what a process keeps
    field_create(2, 19)
    field_create(3, 12)  # 2^19 + 3^12 > 2^20: the older F_{2^19} is dropped
    assert sum(f.order for f in gf._FIELDS.values()) <= DEFAULT_ORDER_CAP
    assert (3, 12) in gf._FIELDS and (2, 19) not in gf._FIELDS
    kept = dict(gf._FIELDS)
    with pytest.raises(FieldError, match="exceeds cap"):
        field_create(2, 21)  # refused before it could evict a kept field
    assert gf._FIELDS == kept


def test_frobenius_tables_kept_with_the_field_and_dropped_with_it(monkeypatch):
    monkeypatch.setattr(gf, "_FIELDS", {})  # evict only the fields made here
    field = field_create(7, 2)
    tables = field.frobenius_tables()
    assert field.frobenius_tables() is tables and field_create(7, 2).frobenius_tables() is tables
    orbit = weakref.ref(tables[0])
    del field, tables
    field_create(2, 20)  # 49 + 2^20 > DEFAULT_ORDER_CAP: F_49 is dropped
    assert orbit() is None
    assert (7, 2) not in gf._FIELDS


@pytest.mark.parametrize("p,m", [(2, 4), (2, 6), (3, 4), (5, 2), (7, 1)])
def test_frobenius_tables_match_the_naive_frobenius(p, m):
    field = field_create(p, m)
    exp, log, _ = field.log_tables()
    orbit, by_degree = field.frobenius_tables()
    n = field.order - 1
    assert orbit[n] == -1  # the log of 0
    for x in range(n):
        a = field.from_int(exp[x])
        assert orbit[x] == min(log[naive_frobenius(a, j).to_int()] for j in range(m))
    assert list(by_degree) == [d for d in range(1, m + 1) if m % d == 0]
    assert sorted(itertools.chain(*by_degree.values())) == list(range(n + 1))
    for d, xs in by_degree.items():
        # d blocks: the least log of each orbit (and n in F_p), then its Frobenius powers
        size = len(xs) // d
        least = list(xs[:size])
        assert least == sorted(least) and all(orbit[x] in (x, -1) for x in least)
        for j in range(d):
            block = [log[naive_frobenius(field.from_int(exp[x]), j).to_int()] for x in least]
            assert list(xs[j * size:(j + 1) * size]) == block
            assert all(min_subfield_degree(field.from_int(exp[x])) == d for x in block)


# sha256 of repr((orbit, by_degree)) as lists, first 16 hex digits, recorded
# from the build that marked each log's least subfield degree in a bytearray
# and walked all logs in one loop: fields too large for the naive Frobenius
FROBENIUS_DIGESTS = {
    (2, 12): "6af8a17fec9e4dec", (3, 7): "93683ed41a75785c",
    (13, 4): "60e1d81590e20ba9", (31, 3): "5efd61d468c619ce",
    (251, 2): "6afcf5710dc8247e", (2, 16): "31c8aac4f738ad4c",
}


@pytest.mark.parametrize("p,m", sorted(FROBENIUS_DIGESTS))
def test_frobenius_tables_match_pinned_digests(p, m):
    orbit, by_degree = field_create(p, m).frobenius_tables()
    tables = (list(orbit), {d: list(xs) for d, xs in by_degree.items()})
    assert hashlib.sha256(repr(tables).encode()).hexdigest()[:16] == FROBENIUS_DIGESTS[p, m]


def test_frobenius_table_build_peaks_below_four_times_the_tables():
    field = FqField(251, 2, field_create(251, 2).modulus)  # a new field, built under the trace
    tracemalloc.start()
    try:
        orbit, by_degree = field.frobenius_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(len(t) * t.itemsize for t in (orbit, *by_degree.values()))
    assert peak <= 4 * kept


def test_default_cap_value():
    assert DEFAULT_ORDER_CAP == 2**20


def test_element_roundtrip_and_hash():
    f9 = field_create(3, 2)
    for a in elements(f9):
        assert f9.from_int(a.to_int()) == a
    assert len(set(elements(f9))) == 9


SMALL_FIELDS = [(p, m) for p in (2, 3, 5, 7) for m in range(1, 9) if p**m <= 256]


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_log_tables_exhaustive(p, m):
    field = field_create(p, m)
    exp, log, zech = field.log_tables()
    n = field.order - 1
    assert sorted(exp[:n]) == list(range(1, field.order))
    assert all(log[exp[k]] == k for k in range(n))
    assert (exp[n], log[0]) == (0, n)  # n is the logarithm of 0
    elems = elements(field)
    for a, b in itertools.product(elems[1:], repeat=2):
        assert exp[(log[a.to_int()] + log[b.to_int()]) % n] == (a * b).to_int()
    one = field.one()
    for k in range(n):
        assert exp[zech[k]] == (field.from_int(exp[k]) + one).to_int()


def test_log_tables_with_a_last_gather_chunk_of_one():
    # 12289 = 24 * 512 + 1 is prime: the Zech gather ends on a chunk of one index
    p = 12289
    exp, log, zech = field_create(p, 1).log_tables()
    assert len(zech) % gf._GATHER == 1
    assert all(log[exp[k]] == k for k in range(p - 1))
    assert all(zech[k] == log[(exp[k] + 1) % p] for k in range(p))  # exp[p - 1] = 0 stands for 0


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_log_space_frobenius_and_subfield_degree(p, m):
    field = field_create(p, m)
    _, log, _ = field.log_tables()
    n = field.order - 1
    for a in elements(field)[1:]:
        x = log[a.to_int()]
        for e in range(1, m + 1):
            assert log[a.frobenius(e).to_int()] == x * p**e % n
        degree = next(d for d in range(1, m + 1) if m % d == 0 and x * (p**d - 1) % n == 0)
        assert degree == min_subfield_degree(a)


def test_log_tables_build_time_f_2_16():
    # a new field, since field_create may return a kept one with its tables built
    field = FqField(2, 16, field_create(2, 16).modulus)
    start = time.perf_counter()
    field.log_tables()
    assert time.perf_counter() - start < 5.0


def test_moduli_and_log_tables_unchanged():
    # certificate bytes, witness coefficients and pinned outputs depend on the
    # modulus of each (p, m) and on the primitive element of its tables
    fields = [(p, m) for p in range(2, 64) if is_prime(p)
              for m in range(1, 17) if p**m <= 2**16]
    moduli = [(p, m, field_create(p, m).modulus) for p, m in fields]
    assert len(moduli) == 75
    assert hashlib.sha256(repr(moduli).encode()).hexdigest() == (
        "3e7a0d7a92b8537babb585a57ec666c6461acaec6fb66b7882ac15d6a73e543b")
    tables = []
    for p, m in fields:
        if p**m <= 2**12:
            exp, _, zech = field_create(p, m).log_tables()
            tables.append((p, m, list(exp), list(zech)))
    assert len(tables) == 58
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
        "b9f92d921286f628fb6e8b3551b20aaf924f1f6f207eb75a6fa77ffe1ac63a25")


# sha256 of repr((exp, zech)) as lists, first 16 hex digits, recorded from the
# coset-walk build that the lane build replaced: every field the verify and
# enumerate benchmark batches build, F_{3^12}, F_{2^16} and F_{1021^2}, and the
# prime fields F_257 and F_65521, whose digits take two bytes.  In F_{2^5},
# F_{2^9} and F_{2^10} the first values of some digit sit in a window of the
# m-sequence that wraps past the end of its period.
TABLE_DIGESTS = {
    (2, 1): "9a188f7861eef5bc", (2, 2): "fb0d86eada69f0f2",
    (2, 3): "390bd6fa31d5eb92", (2, 4): "487f09e569587ef6",
    (2, 5): "4bc4d22ba2e9c2e8", (2, 6): "611af675921296c7",
    (2, 7): "ab6c669c63e62ab8", (2, 8): "fc0a5be7b4fd8456",
    (2, 9): "4131b1ee650f2e49", (2, 10): "50768a313bd177bf",
    (2, 16): "28bf9148f5a79144", (3, 1): "7f975a52c0a0a242",
    (3, 2): "a2d785c4d98fc0e4", (3, 3): "e6e565a08f8cc13a",
    (3, 4): "b6862eec425f35a8", (3, 5): "bd7a5f92954aadb3",
    (3, 6): "a9a17a805803354a", (3, 7): "a0781addd8ed36d9",
    (3, 8): "558bb644d9280c17", (3, 9): "4e0317cdd4ff5853",
    (3, 10): "0ac4a7793e293ef8", (3, 12): "d185c0980c4b3b4a",
    (5, 1): "f2581ac8cb395ee7", (5, 2): "b9f83b62e0e7f795",
    (5, 3): "3d9d2857642c8c96", (5, 4): "1270cd37a1874a97",
    (7, 1): "26d4765942ad6afa", (7, 2): "d942b8a92eb3413c",
    (7, 3): "36d85a34b52c7de7", (11, 2): "233cd1383d20dd33",
    (13, 2): "b1370439d74e9261", (17, 2): "1583a7c16f07cfcc",
    (19, 2): "22e10785840a7db7", (257, 1): "fafb8a5bc5556c5f",
    (1021, 2): "8adb6f6d75814f4e", (65521, 1): "554b8b4de30ad432",
}


@pytest.mark.parametrize("p,m", sorted(TABLE_DIGESTS))
def test_log_tables_match_pinned_digests(p, m):
    exp, _, zech = field_create(p, m).log_tables()
    digest = hashlib.sha256(repr((list(exp), list(zech))).encode()).hexdigest()[:16]
    assert digest == TABLE_DIGESTS[p, m]


@pytest.mark.parametrize("p,m", [(3, 10), (1021, 2)])
def test_log_table_build_peaks_below_twice_the_tables(p, m):
    field = FqField(p, m, field_create(p, m).modulus)  # a new field, built under the trace
    tracemalloc.start()
    try:
        tables = field.log_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sum(len(t) * t.itemsize for t in tables)


@pytest.mark.parametrize("p,m", [(2, 5), (3, 4), (5, 3), (7, 2), (13, 1)])
def test_norm_is_the_power_to_the_subfield_index(p, m):
    field = field_create(p, m)
    e = (field.order - 1) // (p - 1)
    for n in range(field.order):  # n = 0: the resultant with the zero polynomial is 0
        c = field._coeffs(n)
        assert gf._norm(c, field.modulus, p) == field._pow(c, e)[0]


# every monic polynomial of degree <= 8 over F_2, <= 6 over F_3, <= 4 over F_5
# and <= 3 over F_7: among them the divisors of x^(p^d) - x and the polynomials
# with a repeated factor
SMALL_POLYNOMIALS = [(p, low + (1,)) for p, top in ((2, 8), (3, 6), (5, 4), (7, 3))
                     for m in range(1, top + 1)
                     for low in itertools.product(range(p), repeat=m)]


def test_irreducibility_matches_trial_division():
    assert len(SMALL_POLYNOMIALS) == 2781
    for p, f in SMALL_POLYNOMIALS:
        assert gf._is_irreducible(f, p) == naive_is_irreducible(f, p), (p, f)


def test_moduli_are_the_first_irreducibles_by_trial_division(monkeypatch):
    monkeypatch.setattr(gf, "_FIELDS", {})  # keep the tables other tests built
    fields = [(p, m) for p in range(2, 2**12 + 1) if is_prime(p)
              for m in range(1, 13) if p**m <= 2**12]
    for p, m in fields:
        assert field_create(p, m).modulus == naive_min_irreducible(p, m), (p, m)


@pytest.mark.parametrize("p,m,itemsize", [
    (32749, 1, 2),  # the largest prime below 2^15: digit 0 carries into bit 15
    (32771, 1, 4),  # the smallest prime above 2^15: the carry bit 16 needs a wider lane
    (2, 16, 2),  # n = 2^16 - 1, the largest n of two-byte lanes
    (3, 10, 2),
])
def test_log_table_lane_width_boundaries(p, m, itemsize):
    exp, log, zech = field_create(p, m).log_tables()
    n = p**m - 1
    assert [t.itemsize for t in (exp, log, zech)] == [itemsize] * 3
    assert all(log[exp[k]] == k for k in range(n))
    # 1 + g^k adds 1 to digit 0 alone, which wraps from p - 1 to 0
    assert all(zech[k] == log[e - e % p + (e + 1) % p] for k, e in enumerate(exp))
