import hashlib
import json
import math
import random
import sys
import time
import tracemalloc
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    mat_mul,
    naive_is_scalar,
    naive_normalized,
    naive_trace_and_head,
    naive_trace_problem,
    naive_verdict,
    naive_word_value,
    oracle_projpoint,
    tuple_frobenius,
)
from quasifix import certify, matrep
from quasifix.certify import (
    Certificate,
    CertificateFormatError,
    CertifyConfig,
    CertifyError,
    MAX_VERIFY_WORK,
    CheckResult,
    SearchOutcome,
    _flat_trace,
    _structure_problems,
    admissible_primes,
    build_wreath,
    certificate_from_bytes,
    certificate_from_dict,
    search_certificate,
    verify_certificate,
    verify_work,
)
from quasifix.freegroup import (
    FreeEndo,
    IntMatrix2,
    Word,
    endo_is_injective,
    nonscalar_sanity_check,
    sanov_embed,
)
from quasifix.gf import DEFAULT_ORDER_CAP, field_create, is_prime
from quasifix.matrep import (
    Mat2,
    MatTuple,
    ProjPoint,
    find_periodic_orbit,
    pgl_dynamics_step,
    pi_w,
    proj_step,
    random_projpoint,
    random_state,
    state_orbit,
    state_rows,
    trace_indices,
    trace_states,
)


BS12 = FreeEndo.parse(["aa"], 1)
SWAPMIX = FreeEndo.parse(["ab", "ba"], 2)


def mutate(cert: Certificate, edit) -> Certificate:
    """Round-trip the certificate through JSON with a tampering step."""
    data = json.loads(cert.to_bytes())
    edit(data)
    return certificate_from_bytes(json.dumps(data).encode())


@pytest.fixture(scope="module")
def bs12_cert():
    return search_certificate(BS12, Word.parse("a", 1)).certificate


@pytest.fixture(scope="module")
def swapmix_cert():
    return search_certificate(SWAPMIX, Word.parse("a", 2)).certificate


@pytest.fixture(scope="module")
def criterion6_outcomes():
    # the certificate jobs of acceptance criterion 6
    letters = ["a", "b", "A", "B"]
    length_two = [x + y for x in letters for y in letters
                  if len(Word.parse(x + y, 2).letters) == 2]
    jobs = [(BS12, "a"), (BS12, "aa")] + [(SWAPMIX, t) for t in letters + length_two]
    return [search_certificate(phi, Word.parse(text, phi.rank)) for phi, text in jobs]


def wreath_inputs(cert: Certificate):
    """The parsed endomorphism, word, field and states that verify_certificate holds."""
    field = field_create(cert.p, cert.s)
    flat = [c for entry in cert.trace for mat in entry for row in mat for c in row]
    return (FreeEndo.parse(cert.images, cert.rank), Word.parse(cert.word, cert.rank),
            field, trace_states(field, trace_indices(flat, cert.p, cert.s), cert.rank))


# -- prime selection ---------------------------------------------------------

def test_pick_prime_squaring_map():
    # integer oracle: the 4th iterate of a under a -> a^2 is a^16, whose
    # Sanov matrix is [[1, 32], [0, 1]]; only divisors of 32 are excluded
    mat = sanov_embed(Word.parse("a" * 16, 1))
    assert mat == IntMatrix2(1, 32, 0, 1)
    assert next(admissible_primes(BS12, Word.parse("a", 1))) == 3


@pytest.mark.parametrize("images,word,expected", [
    (["aa"], "a", [3, 5, 7, 11, 13, 17]),
    (["ab", "ba"], "a", [5, 7, 13, 19, 23, 29]),
    (["ab", "ba"], "aB", [5, 7, 13, 19, 23, 29]),
    (["abc", "bca", "cab"], "aB", [11, 13, 31, 37, 41, 43]),
    (["aabb", "ab", "c"], "abc", [3, 5, 7, 11, 13, 17]),
])
def test_first_admissible_primes_pinned(images, word, expected):
    phi = FreeEndo.parse(images, len(images))
    primes = admissible_primes(phi, Word.parse(word, phi.rank))
    assert [next(primes) for _ in range(6)] == expected


def test_prime_selection_crosses_a_batch():
    # the Sanov matrix of phi^4(w) is [[1, 2 * 1001 * 15^4], [0, 1]]: the whole first
    # batch 3..13 divides it, and the six admissible primes span two more batches
    phi, w = FreeEndo.parse(["a" * 15], 1), Word.parse("a" * 1001, 1)
    per_prime = [q for q in range(3, 60) if is_prime(q) and nonscalar_sanity_check(phi, w, 4, q)[0]]
    primes = admissible_primes(phi, w)
    assert [next(primes) for _ in range(6)] == per_prime[:6] == [17, 19, 23, 29, 31, 37]


def test_pick_prime_rejects_identity_word():
    with pytest.raises(CertifyError):
        next(admissible_primes(BS12, Word.identity(1)))


def test_a_diagonal_sanov_matrix_qualifies_through_its_diagonal():
    # aababb under the identity of rank 2: mod 11 the Sanov matrix is
    # diag(9, 5), whose off-diagonal entries vanish, so only a != d admits 11
    phi, w = FreeEndo.parse(["a", "b"], 2), Word.parse("aababb", 2)
    assert nonscalar_sanity_check(phi, w, 8, 11) == (True, IntMatrix2(9, 0, 0, 5))
    primes = admissible_primes(phi, w)
    assert [next(primes) for _ in range(4)] == [3, 5, 7, 11]


def test_excluded_primes_form_finite_divisor_set():
    phi = SWAPMIX
    w = Word.parse("a", 2)
    # integer oracle: phi^8(a) written out and embedded over Z
    mat = sanov_embed(phi.apply_power(w, 8))
    g = math.gcd(math.gcd(abs(mat.b), abs(mat.c)), abs(mat.a - mat.d))
    primes = admissible_primes(phi, w)
    p = next(primes)
    assert g % p != 0
    for q in (2, 3, 5, 7, 11):
        if q < p:
            assert g % q == 0  # every smaller prime really is excluded
    # the next primes are those not dividing g, in increasing order
    expected = [q for q in range(p + 1, 60) if is_prime(q) and g % q != 0][:5]
    assert [next(primes) for _ in range(5)] == expected


# -- search ------------------------------------------------------------------

def test_search_preconditions():
    with pytest.raises(CertifyError):
        search_certificate(BS12, Word.identity(1))
    noninjective = FreeEndo.parse(["a", "a"], 2)
    with pytest.raises(CertifyError):
        search_certificate(noninjective, Word.parse("a", 2))


def test_search_bs12(bs12_cert):
    cert = bs12_cert
    assert cert.p == 3 and cert.rank == 1
    assert verify_certificate(cert).passed


def test_search_bs12_squared_word():
    cert = search_certificate(BS12, Word.parse("aa", 1)).certificate
    assert verify_certificate(cert).passed


def test_search_swapmix(swapmix_cert):
    assert swapmix_cert.p == 5
    assert verify_certificate(swapmix_cert).passed


def test_roundtrip_bytes(swapmix_cert):
    blob = swapmix_cert.to_bytes()
    again = certificate_from_bytes(blob)
    assert again == swapmix_cert
    assert again.to_bytes() == blob


def test_search_determinism(swapmix_cert):
    second = search_certificate(SWAPMIX, Word.parse("a", 2)).certificate
    assert second.to_bytes() == swapmix_cert.to_bytes()


def test_search_alternate_seed_still_verifies():
    cert = search_certificate(SWAPMIX, Word.parse("b", 2),
                              CertifyConfig(seed=99)).certificate
    assert cert.seed == 99
    assert verify_certificate(cert).passed


def test_search_budget_exhaustion_reports_frontier():
    out = search_certificate(SWAPMIX, Word.parse("a", 2),
                             CertifyConfig(s_max=1, seeds_per_field=1, orbit_budget=1))
    assert not out.found
    assert out.reason == "walks out of budget: 6"
    assert out.frontier == tuple((p, 1, 1) for p in (5, 7, 13, 19, 23, 29))  # MAX_PRIMES


def test_the_not_found_reason_counts_each_cause(monkeypatch):
    # under the identity every start is a fixed point with a scalar word
    # value: each of the six walks finds its cycle in one step, and no budget
    # runs out
    ident = FreeEndo.parse(["a"], 1)
    out = search_certificate(ident, Word.parse("a" * 5040, 1),
                             CertifyConfig(s_max=1, seeds_per_field=1))
    assert not out.found
    assert out.reason == "cycles with a scalar word at every rotation: 6"
    assert out.frontier == tuple((p, 1, 1) for p in (11, 13, 17, 19, 23, 29))
    # no field of the first prime is within the order cap, so no walk ran
    monkeypatch.setattr(certify, "DEFAULT_ORDER_CAP", 2)
    out = search_certificate(ident, Word.parse("a", 1), CertifyConfig())
    assert (out.found, out.frontier, out.reason) == (False, (), "no field within the order cap")


def test_the_not_found_counts_add_up_to_the_walks(monkeypatch):
    # three causes at once; the walks' own reasons recount the budget cause,
    # and every walk run is counted under exactly one cause
    walks = []

    def recorded(*args):
        walks.append(state_orbit(*args))
        return walks[-1]

    monkeypatch.setattr(certify, "state_orbit", recorded)
    monkeypatch.setattr(certify, "MAX_VERIFY_WORK", 5)  # period 1 only, for word "a"
    out = search_certificate(SWAPMIX, Word.parse("a", 2),
                             CertifyConfig(s_max=1, seeds_per_field=2, orbit_budget=10))
    assert out.reason == ("walks out of budget: 10; cycles over the verify work cap: 1; "
                          "cycles with a scalar word at every rotation: 1")
    assert sum(walk.reason == "budget" for walk in walks) == 10
    assert len(walks) == sum(n for *_, n in out.frontier) == 12


@pytest.mark.parametrize("images,word,p", [
    (["abc", "bca", "cab"], "aB", 11),
    (["aabb", "ab", "c"], "abc", 3),
])
def test_fast_growing_images_get_certificates(images, word, p):
    # phi^12(w) has over a million letters here; prime selection never builds it
    phi = FreeEndo.parse(images, 3)
    assert endo_is_injective(phi)
    out = search_certificate(phi, Word.parse(word, 3))
    assert out.found and out.certificate.p == p
    assert verify_certificate(certificate_from_bytes(out.certificate.to_bytes())).passed


@pytest.mark.parametrize("images", [["a", "a"], ["abc", "abc", "abc"]])
def test_noninjective_override_rejects_word_killed_by_phi(images):
    # phi(aB) = 1, so aB dies in the mapping torus and no prime can separate it
    phi = FreeEndo.parse(images, len(images))
    start = time.perf_counter()
    with pytest.raises(CertifyError, match="dies in the mapping torus"):
        search_certificate(phi, Word.parse("aB", phi.rank),
                           CertifyConfig(allow_noninjective=True))
    assert time.perf_counter() - start < 1.0


def test_noninjective_override_runs():
    noninjective = FreeEndo.parse(["a", "a"], 2)
    out = search_certificate(noninjective, Word.parse("a", 2),
                             CertifyConfig(allow_noninjective=True))
    assert out.found
    assert verify_certificate(out.certificate).passed


@pytest.mark.parametrize("field", ["s_max", "seeds_per_field", "orbit_budget"])
def test_config_counts_below_one_rejected(field):
    with pytest.raises(CertifyError, match=">= 1"):
        CertifyConfig(**{field: 0})


def test_search_verdict_matches_independent_verify(criterion6_outcomes):
    # the certify command prints the search's own verdict, so it must equal a
    # fresh verification
    for out in criterion6_outcomes:
        assert out.found and out.verdict.passed
        assert out.verdict.to_dict() == verify_certificate(out.certificate).to_dict()


def test_criterion6_certificate_bytes_pinned(criterion6_outcomes):
    # the same seed gives byte-identical certificates across versions, not only
    # within one process (acceptance criterion 9)
    h = hashlib.sha256()
    for out in criterion6_outcomes:
        h.update(out.certificate.to_bytes())
    assert h.hexdigest() == (
        "644fd2b912e1a927bdbe45ae9ea044d3f33e97780ae29ff6c4867cd5ce7e472d")


@pytest.mark.parametrize("images,word,seed,field,digest", [
    (["ab", "ba"], "a", 0, (5, 2), "378cdc0fc499c7b3bfd4241a4bf10ada073bfbffd9b74f6d70ee30aa059b21bb"),
    (["ab", "ba"], "a", 3, (5, 3), "1f44568274db19c7fbe3852b7268a82ee79dd252981f97fceb508e92f8698857"),
    (["ab", "bA"], "a", 0, (3, 3), "df2380b8f3060a78b2929ed027b48f020f0ad3efb0acc5bf52987c7325bbb370"),
    (["aB", "ba"], "b", 0, (3, 2), "50999a2ceb9ee26869c1d784b41346122bd3d9976d354e2012ec784f9d8977a4"),
])
def test_extension_field_certificate_bytes_pinned(images, word, seed, field, digest):
    # with one seed per field the search climbs to s >= 2, the only place where
    # the orbit step runs inside the search on an extension field
    phi = FreeEndo.parse(images, len(images))
    out = search_certificate(phi, Word.parse(word, phi.rank),
                             CertifyConfig(seeds_per_field=1, seed=seed))
    assert (out.certificate.p, out.certificate.s) == field
    assert hashlib.sha256(out.certificate.to_bytes()).hexdigest() == digest


def test_search_rejects_rank_mismatch():
    with pytest.raises(CertifyError):
        search_certificate(BS12, Word.parse("ab", 2))


def test_roundtrip_rank_three_endomorphism():
    phi = FreeEndo.parse(["ab", "bc", "ca"], 3)
    assert endo_is_injective(phi)
    for text in ("a", "c", "abC"):
        out = search_certificate(phi, Word.parse(text, 3))
        assert out.found
        blob = out.certificate.to_bytes()
        assert verify_certificate(certificate_from_bytes(blob)).passed


def test_roundtrip_longer_words(swapmix_cert):
    for text in ("aba", "bAb", "aab"):
        out = search_certificate(SWAPMIX, Word.parse(text, 2))
        assert out.found
        blob = out.certificate.to_bytes()
        assert verify_certificate(certificate_from_bytes(blob)).passed


def test_roundtrip_images_with_inverse_letters():
    # inverse letters in the images drive the adjugate path of the dynamics
    for images, wtext in [(["aB", "b"], "a"), (["aB", "b"], "bA"),
                          (["ab", "a"], "ab"), (["aab", "ba"], "b")]:
        phi = FreeEndo.parse(images, 2)
        assert endo_is_injective(phi)
        out = search_certificate(phi, Word.parse(wtext, 2))
        assert out.found
        blob = out.certificate.to_bytes()
        assert verify_certificate(certificate_from_bytes(blob)).passed


# -- wreath construction -------------------------------------------------------

def test_wreath_period_one_degenerate():
    ident = FreeEndo.parse(["a"], 1)
    cert = search_certificate(ident, Word.parse("a", 1)).certificate
    assert cert.period == 1
    data = build_wreath(*wreath_inputs(cert))
    assert data.period == 1
    assert all(data.relations_hold) and data.w_first_coordinate_nontrivial


def test_wreath_bs12_row_squares_along_shift(bs12_cert):
    phi, w, field, states = wreath_inputs(bs12_cert)
    data = build_wreath(phi, w, field, states)
    assert all(data.relations_hold)
    row = [Mat2(field, state[0]) for state in states]
    n = data.period
    for i in range(n):
        assert row[(i + 1) % n] == mat_mul(row[i], row[i]).normalized()


def test_wreath_word_image_first_coordinate(swapmix_cert):
    phi, w, field, states = wreath_inputs(swapmix_cert)
    data = build_wreath(phi, w, field, states)
    assert data.w_first_coordinate_nontrivial
    value = pi_w(w, MatTuple(Mat2(field, m) for m in states[0]))
    assert not value.is_scalar()


def test_quotient_respects_all_defining_relations(swapmix_cert):
    # homomorphism check: t x_j t^-1 -> w_j for every generator, verified
    # coordinatewise in the semidirect product
    data = build_wreath(*wreath_inputs(swapmix_cert))
    assert data.relations_hold == (True, True)


def test_wreath_arithmetic_matches_matrep_oracle(criterion6_outcomes):
    # the wreath check evaluates each image word once per trace tuple with
    # matrep and compares up to scalars; its per-generator and per-step
    # verdicts must equal the coordinatewise relations computed with naive
    # field-element products straight from the certificate's rows, sharing
    # no matrix code with matrep, on valid certificates (criterion 6, plus
    # images with inverse letters) and on tampered traces that still pass
    # tuple_in_group
    inverse_images = [search_certificate(FreeEndo.parse(images, 2), Word.parse(text, 2))
                      for images, text in [(["aB", "ba"], "a"), (["ab", "bA"], "a")]]

    def swapped(d):
        d["trace"][1], d["trace"][2] = d["trace"][2], d["trace"][1]

    def rotated(d):
        d["trace"] = d["trace"][1:] + d["trace"][:1]
        d["tuple"] = d["trace"][0]

    def scalar_tuple(d):
        s = d["s"]
        ident = [[1] + [0] * (s - 1), [0] * s, [0] * s, [1] + [0] * (s - 1)]
        d["period"] = 1
        d["tuple"] = [ident] * d["rank"]
        d["trace"] = [d["tuple"]]

    edits = [lambda d: None, swapped, rotated, scalar_tuple,
             lambda d: d.__setitem__("images", {1: ["aaa"], 2: ["ab", "bb"]}[d["rank"]]),
             lambda d: d.__setitem__("p", {3: 5, 5: 7}[d["p"]])]
    seen = set()
    for out in criterion6_outcomes + inverse_images:
        for edit in edits:
            if edit is swapped and out.certificate.period < 3:
                continue
            cert = mutate(out.certificate, edit)
            if verify_certificate(cert).checks[1].status != "pass":
                continue
            phi, w, field, states = wreath_inputs(cert)
            data = build_wreath(phi, w, field, states)
            n = len(states)
            rows = [[tuple(field.element(row) for row in mat) for mat in entry]
                    for entry in cert.trace]
            holds = [[naive_normalized(naive_word_value(image, rows[i])) == rows[(i + 1) % n][j]
                      for j, image in enumerate(phi.images)] for i in range(n)]
            expected = tuple(all(holds[i][j] for i in range(n))
                             for j in range(len(phi.images)))
            assert data.relations_hold == expected
            assert data.steps_close == tuple(all(step) for step in holds)
            assert data.w_first_coordinate_nontrivial == (
                not naive_is_scalar(naive_word_value(w, rows[0])))
            seen.update((("relations", all(data.relations_hold)),
                         ("word", data.w_first_coordinate_nontrivial)))
    assert len(seen) == 4  # both verdicts of both checks occurred


def test_verifier_honours_order_cap_above_default():
    # identity endomorphism, period 1, over F_{1031^2}: p^s = 1062961 > 2^20, a
    # valid certificate but for the cap, which no caller can raise
    one, zero, x = [1, 0], [0, 0], [0, 1]
    cert = certificate_from_dict({
        "format_version": 1, "rank": 1, "images": ["a"], "word": "a",
        "p": 1031, "s": 2, "period": 1, "tuple": [[one, x, zero, one]],
        "trace": [[[one, x, zero, one]]], "metadata": {"seed": 0}})
    verdict = verify_certificate(cert)
    assert verdict.failures == ["structure"]
    assert verdict.checks[0].detail == "field order 1031^2 exceeds cap 1048576"


# -- verifier and negative paths ----------------------------------------------

def test_verifier_names_all_checks(swapmix_cert):
    verdict = verify_certificate(swapmix_cert)
    names = [c.name for c in verdict.checks]
    assert names == ["structure", "tuple_in_group", "condition_i",
                     "condition_ii", "condition_iii", "wreath_relations"]
    assert verdict.passed and not verdict.failures


def test_mutation_padded_period(swapmix_cert):
    def edit(data):
        data["period"] += 1
        data["trace"].append(data["trace"][0])

    verdict = verify_certificate(mutate(swapmix_cert, edit))
    assert "condition_ii" in verdict.failures


def test_mutation_period_field_only(swapmix_cert):
    verdict = verify_certificate(
        mutate(swapmix_cert, lambda d: d.__setitem__("period", d["period"] + 1)))
    assert "structure" in verdict.failures


def test_mutation_swapped_orbit_entries(swapmix_cert):
    assert swapmix_cert.period >= 3

    def edit(data):
        data["trace"][1], data["trace"][2] = data["trace"][2], data["trace"][1]

    verdict = verify_certificate(mutate(swapmix_cert, edit))
    assert "condition_ii" in verdict.failures


def test_mutation_scalar_tuple(bs12_cert):
    # identity matrices: the orbit closes (period 1) but the word value is scalar
    def edit(data):
        ident = [[1] + [0] * (bs12_cert.s - 1), [0] * bs12_cert.s,
                 [0] * bs12_cert.s, [1] + [0] * (bs12_cert.s - 1)]
        data["trace"] = [[ident]]
        data["tuple"] = [ident]
        data["period"] = 1

    verdict = verify_certificate(mutate(bs12_cert, edit))
    assert "condition_iii" in verdict.failures
    assert "condition_ii" not in verdict.failures


def test_mutation_singular_matrix(swapmix_cert):
    def edit(data):
        s = swapmix_cert.s
        singular = [[1] + [0] * (s - 1), [0] * s, [0] * s, [0] * s]
        data["trace"][0][0] = singular
        data["tuple"][0] = singular

    verdict = verify_certificate(mutate(swapmix_cert, edit))
    assert "tuple_in_group" in verdict.failures


def test_mutation_wrong_prime(swapmix_cert):
    verdict = verify_certificate(
        mutate(swapmix_cert, lambda d: d.__setitem__("p", 7)))
    assert not verdict.passed
    assert "condition_ii" in verdict.failures


def test_mutation_tampered_images(swapmix_cert):
    verdict = verify_certificate(
        mutate(swapmix_cert, lambda d: d.__setitem__("images", ["ab", "bb"])))
    assert "condition_ii" in verdict.failures


def test_mutation_tampered_trace_entry(swapmix_cert):
    def edit(data):
        row = data["trace"][1][0][3]
        row[0] = (row[0] + 1) % swapmix_cert.p

    mutated = mutate(swapmix_cert, edit)
    verdict = verify_certificate(mutated)
    assert not verdict.passed
    assert "condition_ii" in verdict.failures or "tuple_in_group" in verdict.failures


def test_mutation_denormalized_entries(swapmix_cert):
    def edit(data):
        for mat in data["trace"][1]:
            for row in mat:
                for i, c in enumerate(row):
                    row[i] = (2 * c) % swapmix_cert.p

    verdict = verify_certificate(mutate(swapmix_cert, edit))
    assert "tuple_in_group" in verdict.failures


def test_mutation_head_mismatch(swapmix_cert):
    def edit(data):
        data["tuple"] = data["trace"][1]

    verdict = verify_certificate(mutate(swapmix_cert, edit))
    assert "structure" in verdict.failures


def test_mutation_identity_word(swapmix_cert):
    verdict = verify_certificate(
        mutate(swapmix_cert, lambda d: d.__setitem__("word", "aA")))
    assert "structure" in verdict.failures


def test_malformed_json_raises():
    with pytest.raises(CertificateFormatError):
        certificate_from_bytes(b"not json at all {")
    with pytest.raises(CertificateFormatError):
        certificate_from_bytes(b"{}")
    with pytest.raises(CertificateFormatError):
        certificate_from_bytes(json.dumps({
            "format_version": 1, "rank": True, "images": [], "word": "a",
            "p": 3, "s": 1, "period": 1, "tuple": [], "trace": [[]],
            "metadata": {}}).encode())
    # an integer past Python's 4300-digit conversion limit, and nesting past
    # the recursion limit, must not escape as bare ValueError/RecursionError
    with pytest.raises(CertificateFormatError):
        certificate_from_bytes(b'{"format_version": 1, "p": ' + b"7" * 5000 + b"}")
    with pytest.raises(CertificateFormatError):
        certificate_from_bytes(b"[" * 100000 + b"]" * 100000)


def _set_coefficient(value):
    def edit(mat):
        mat[1][0] = value
    return edit


def _set_row(row):
    def edit(mat):
        mat[1] = row
    return edit


FORMAT_COEFFICIENT = "format: malformed certificate: {} matrix coefficient must be an integer"
FORMAT_ROW = "format: malformed certificate: {} matrix entries must be nonempty coefficient lists"
OUT_OF_RANGE = "structure fail: matrix coefficients out of range for the field"


@pytest.mark.parametrize("edit,trace_outcome,tuple_outcome", [
    (lambda mat: None, "structure pass: fields, words and shapes are coherent", None),
    (_set_coefficient(True), FORMAT_COEFFICIENT.format("trace"),
     FORMAT_COEFFICIENT.format("tuple")),
    (_set_coefficient(False), FORMAT_COEFFICIENT.format("trace"),
     FORMAT_COEFFICIENT.format("tuple")),
    (_set_coefficient(None), FORMAT_COEFFICIENT.format("trace"),
     FORMAT_COEFFICIENT.format("tuple")),
    (_set_coefficient(1.5), FORMAT_COEFFICIENT.format("trace"),
     FORMAT_COEFFICIENT.format("tuple")),
    (_set_coefficient(1.0), FORMAT_COEFFICIENT.format("trace"),
     FORMAT_COEFFICIENT.format("tuple")),
    (_set_coefficient("1"), FORMAT_COEFFICIENT.format("trace"),
     FORMAT_COEFFICIENT.format("tuple")),
    (_set_coefficient([1]), FORMAT_COEFFICIENT.format("trace"),
     FORMAT_COEFFICIENT.format("tuple")),
    (_set_coefficient({}), FORMAT_COEFFICIENT.format("trace"),
     FORMAT_COEFFICIENT.format("tuple")),
    (_set_coefficient(10**40), OUT_OF_RANGE, None),
    (_set_coefficient(-1), OUT_OF_RANGE, None),
    (_set_coefficient(4), "structure pass: fields, words and shapes are coherent", None),
    (_set_coefficient(5), OUT_OF_RANGE, None),  # p
    (_set_row([1]), OUT_OF_RANGE, None),  # short row
    (_set_row([1, 0, 0]), OUT_OF_RANGE, None),  # long row
    (_set_row([]), FORMAT_ROW.format("trace"), FORMAT_ROW.format("tuple")),
    (_set_row(3), FORMAT_ROW.format("trace"), FORMAT_ROW.format("tuple")),
    (_set_row(None), FORMAT_ROW.format("trace"), FORMAT_ROW.format("tuple")),
    (lambda mat: mat.pop(), "format: malformed certificate: trace matrix must be a list "
     "of 4 entry rows", "format: malformed certificate: tuple matrix must be a list "
     "of 4 entry rows"),
], ids=["valid", "true", "false", "null", "float", "integral_float", "string", "list",
        "object", "huge", "negative", "p_minus_1", "p", "short_row", "long_row",
        "empty_row", "int_row", "null_row", "three_rows"])
def test_coefficient_checks_pinned(swapmix_cert, edit, trace_outcome, tuple_outcome):
    # each coefficient-level malformation has one outcome: a format error at
    # parse (types and shapes) or a structure failure (range); the declared
    # tuple is parsed like the trace and then only compared with trace[0]
    data = json.loads(swapmix_cert.to_bytes())
    assert (data["p"], data["s"]) == (5, 1)
    data["s"] = 2  # pad to F_25, so that a short row is still nonempty
    for entry in data["trace"]:
        for mat in entry:
            for row in mat:
                row.append(0)
    data["tuple"] = data["trace"][0]

    def outcome(d):
        try:
            cert = certificate_from_bytes(json.dumps(d).encode())
        except CertificateFormatError as exc:
            return f"format: {exc}"
        check = verify_certificate(cert).checks[0]
        return f"{check.name} {check.status}: {check.detail}"

    in_both = json.loads(json.dumps(data))
    edit(in_both["trace"][0][0])
    edit(in_both["tuple"][0])
    assert outcome(in_both) == trace_outcome
    in_tuple = json.loads(json.dumps(data))
    edit(in_tuple["tuple"][0])
    assert outcome(in_tuple) == (tuple_outcome or (
        trace_outcome if trace_outcome.startswith("structure pass")
        else "structure fail: declared tuple differs from the first trace entry"))


@pytest.mark.parametrize("s,detail", [
    (0, "field degree s = 0 must be >= 1"),
    (1, "matrix coefficients out of range for the field"),
])
def test_in_code_certificate_with_empty_rows(s, detail):
    # a Certificate built in code skips the parser, so its empty rows reach the
    # structure check, which must name them without raising
    cert = Certificate(rank=1, images=("a",), word="a", p=5, s=s, period=1,
                       trace=((((), (), (), ()),),), seed=0)
    verdict = verify_certificate(cert)
    assert verdict.checks[0] == CheckResult("structure", "fail", detail)
    assert [c.status for c in verdict.checks[1:]] == ["skipped"] * 5


@pytest.mark.parametrize("rows", [3, 5])
def test_in_code_certificate_with_wrong_row_count(rows):
    # the parser insists on 4 rows; an in-code matrix with another count must
    # fail structure, not raise when the rows are read into states
    mat = ((1,),) + ((0,),) * (rows - 1)
    cert = Certificate(rank=1, images=("a",), word="a", p=5, s=1, period=1,
                       trace=((mat,),), seed=0)
    verdict = verify_certificate(cert)
    assert verdict.checks[0] == CheckResult(
        "structure", "fail", "trace matrix does not have 4 entry rows")
    assert [c.status for c in verdict.checks[1:]] == ["skipped"] * 5


@pytest.mark.parametrize("edit,detail", [
    ({"word": " a "}, "word ' a ' is not its canonical reduced text 'a'"),
    ({"images": [" aaa"]}, "image ' aaa' is not its canonical reduced text 'aaa'"),
    ({"word": "x1"}, "word 'x1' is not its canonical reduced text 'a'"),
    ({"word": "x0"}, "word syntax: generator index 0 is out of range 1..1"),
], ids=["word", "image", "indexed-word", "index-zero"])
def test_whitespace_in_a_text_fails_structure(bs12_cert, edit, detail):
    # the word is compared with its canonical reduced text as it stands, as the
    # images are: x1 is reduced, but at rank 1 its canonical text is a
    verdict = verify_certificate(mutate(bs12_cert, lambda d: d.update(edit)))
    assert verdict.checks[0] == CheckResult("structure", "fail", detail)


@pytest.mark.parametrize("edit,detail", [
    ({"format_version": 2}, "unsupported format_version 2"),
    ({"rank": 0}, "rank must be >= 1; 1 images for rank 0; word syntax: generator 'a' "
                  "exceeds rank 0; trace entry arity differs from rank"),
], ids=["format-version", "rank-zero"])
def test_a_header_fault_fails_structure_by_name(bs12_cert, edit, detail):
    verdict = verify_certificate(mutate(bs12_cert, lambda d: d.update(edit)))
    assert verdict.checks[0] == CheckResult("structure", "fail", detail)
    assert [c.status for c in verdict.checks[1:]] == ["skipped"] * 5


def test_an_indexed_certificate_past_rank_26_verifies():
    # a cyclic permutation of 27 generators: images and word are written x2, x27X1, ...
    phi = FreeEndo.parse([f"x{j % 27 + 1}" for j in range(1, 28)], 27)
    cert = search_certificate(phi, Word.parse("x27X1", 27)).certificate
    assert (cert.images[:2], cert.images[-1], cert.word) == (("x2", "x3"), "x1", "x27X1")
    assert verify_certificate(certificate_from_bytes(cert.to_bytes())).passed


def test_search_refuses_a_certificate_that_fails_its_own_verification(monkeypatch):
    # one coefficient of the first trace matrix written off by one
    rows = certify.state_rows

    def off_by_one(field, state):
        (((c, *cs), *entries), *mats) = rows(field, state)
        return ((((c + 1) % field.p, *cs), *entries), *mats)

    monkeypatch.setattr(certify, "state_rows", off_by_one)
    with pytest.raises(RuntimeError, match=r"^internal error: fresh certificate failed "
                                           r"verification: \['tuple_in_group'\]$"):
        search_certificate(BS12, Word.parse("a", 1))


# -- whole-trace ingest against the walk oracle --------------------------------

# prime fields on both sides of each lane width of `trace_indices`; 1031^2 is over the cap
INGEST_FIELDS = [(2, 1), (5, 1), (3, 2), (2, 3), (2, 7), (13, 2), (3, 5), (2, 9), (251, 2),
                 (257, 2), (65521, 1), (2, 20), (1021, 2), (1048573, 1), (1031, 2)]
NOT_LISTS = [None, 3, "x", {}]
BAD_COEFFICIENTS = [-1, True, False, 2**64, 1.5, None, "1"]


def _ingest_object(p, s, rank, trace):
    """A certificate object whose fields other than the trace and tuple are valid."""
    return {"format_version": 1, "rank": rank, "images": list("abc"[:rank]), "word": "a",
            "p": p, "s": s, "period": len(trace), "tuple": json.loads(json.dumps(trace[0])),
            "trace": trace, "metadata": {"seed": 0}}


def _lane_case(p, s, bad=None):
    """Two rank-1 entries holding 0, 1 and p - 1 in every place; bad replaces
    the last coefficient."""
    top, one = [p - 1] * s, [1] + [0] * (s - 1)
    trace = [[[top, [0] * s, one, top]], [[one, top, top, [0] * s]]]
    data = _ingest_object(p, s, 1, trace)
    if bad is not None:
        trace[-1][-1][-1][-1] = bad
    return data


def _mutate_ingest(draw, data, p):
    """One malformation of the trace, or of the tuple one time in four, at a
    drawn level of the nesting."""
    holder, key = ((data, "tuple") if draw(st.integers(0, 3)) == 0
                   else (data["trace"], draw(st.integers(0, len(data["trace"]) - 1))))
    kind = draw(st.sampled_from(["entry", "arity", "mat", "rows", "row", "row_length",
                                 "coefficient"]))
    if kind == "entry":
        holder[key] = draw(st.sampled_from(NOT_LISTS))
        return
    entry = holder[key]
    if not isinstance(entry, list) or not entry:
        return
    if kind == "arity":
        if draw(st.booleans()):
            entry.pop()
        else:
            entry.append(json.loads(json.dumps(entry[0])))
        return
    j = draw(st.integers(0, len(entry) - 1))
    if kind == "mat":
        entry[j] = draw(st.sampled_from(NOT_LISTS))
        return
    mat = entry[j]
    if not isinstance(mat, list) or not mat:
        return
    if kind == "rows":  # 3 or 5 rows
        if draw(st.booleans()):
            mat.pop()
        else:
            mat.append(json.loads(json.dumps(mat[0])))
        return
    r = draw(st.integers(0, len(mat) - 1))
    if kind == "row":
        mat[r] = draw(st.sampled_from(NOT_LISTS + [[]]))
        return
    row = mat[r]
    if not isinstance(row, list):
        return
    if kind == "row_length":  # s - 1 or s + 1 coefficients
        if row and draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(st.integers(0, p - 1)))
    elif row:
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.sampled_from(BAD_COEFFICIENTS + [p, p + 1]) | st.integers(0, p - 1))


@st.composite
def ingest_cases(draw):
    p, s = draw(st.sampled_from(INGEST_FIELDS))
    rank = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, p - 1) | st.just(p - 1), min_size=s, max_size=s)
    mat = st.lists(row, min_size=4, max_size=4)
    trace = draw(st.lists(st.lists(mat, min_size=rank, max_size=rank), min_size=1, max_size=3))
    data = _ingest_object(p, s, rank, trace)
    for _ in range(draw(st.integers(0, 3))):
        _mutate_ingest(draw, data, p)
    return data


def _in_code_trace(entries):
    """The trace as the nested tuples a certificate built in code holds, when
    every level is a list and every coefficient an int or a bool; else None."""
    if not all(isinstance(e, list) and all(
            isinstance(m, list) and all(
                isinstance(r, list) and all(isinstance(c, int) for c in r) for r in m)
            for m in e) for e in entries):
        return None
    return tuple(tuple(tuple(map(tuple, m)) for m in e) for e in entries)


@settings(max_examples=300, deadline=None)
@given(data=ingest_cases())
@example(data=_lane_case(2, 20))  # 2^20, the default cap: four-byte lanes
@example(data=_lane_case(2, 20, bad=2))
@example(data=_lane_case(251, 2))  # 251^2 < 2^16: two-byte lanes
@example(data=_lane_case(251, 2, bad=251))
@example(data=_lane_case(257, 2))  # 257^2 > 2^16, and 257 is past one byte
@example(data=_lane_case(257, 2, bad=257))
@example(data=_lane_case(1021, 2))
@example(data=_lane_case(65521, 1))  # coefficients past one byte in two-byte lanes
@example(data=_lane_case(65521, 1, bad=65521))
@example(data=_lane_case(1048573, 1))
@example(data=_lane_case(1048573, 1, bad=2**64))
@example(data=_lane_case(1031, 2, bad=1031))  # over the cap: range-checked only
@example(data=_lane_case(2, 7, bad=True))  # JSON true: refused, though bytes() reads it
# an entry's row counts are checked before the range of any of its coefficients
@example(data=_ingest_object(5, 1, 2, [[[[1], [0], [0], [5]], [[1], [0], [0]]]]))
# the first problem in file order: a coefficient before a later row of its
# matrix, a later matrix, a later entry, and the tuple
@example(data=_ingest_object(5, 1, 1, [[[[True], [], [0], [1]]]]))
@example(data=_ingest_object(5, 1, 2, [[[[True], [0], [0], [1]], [[1], [0], [0]]]]))
@example(data=_ingest_object(5, 1, 1, [[[[True], [0], [0], [1]]], 7]))
@example(data={**_ingest_object(5, 1, 1, [[[[True], [0], [0], [1]]]]), "tuple": 7})
def test_whole_trace_ingest_matches_the_walk_oracle(data):
    # the parser gives the walk's certificate or its first message, and the
    # structure check its problem list and element indices, on the parsed
    # certificate and on the same trace built in code (3 or 5 rows, empty rows
    # and bools reach the structure check only that way); the fold gives them
    # with the trace in one chunk and with one or two rows a chunk
    p, s, rank = data["p"], data["s"], data["rank"]
    cap = ([f"field order {p}^{s} exceeds cap {DEFAULT_ORDER_CAP}"]
           if p**s > DEFAULT_ORDER_CAP else [])

    def check_structure(cert, head_problems):
        problem, naive_indices = naive_trace_problem(cert.trace, rank, p, s)
        for lanes in (matrep._FOLD_LANES, 1, 2 * s + 1):
            with mock.patch.object(matrep, "_FOLD_LANES", lanes):
                problems, _, indices = _structure_problems(cert, *_flat_trace(cert))
            assert problems == cap + head_problems + ([problem] if problem else [])
            if not problems:
                assert list(indices) == naive_indices

    try:
        trace, head = naive_trace_and_head(data)
    except ValueError as exc:
        with pytest.raises(CertificateFormatError) as caught:
            certificate_from_dict(data)
        assert str(caught.value) == f"malformed certificate: {exc}"
    else:
        cert = certificate_from_dict(data)
        assert cert == Certificate(rank=rank, images=tuple(data["images"]), word="a", p=p, s=s,
                                   period=len(trace), trace=trace, seed=0,
                                   declared_head=head if head != trace[0] else None)
        check_structure(cert, [] if cert.declared_head is None
                        else ["declared tuple differs from the first trace entry"])
    nested = _in_code_trace(data["trace"])
    if nested is not None:
        check_structure(Certificate(rank=rank, images=tuple(data["images"]), word="a", p=p,
                                    s=s, period=len(nested), trace=nested, seed=0), [])


def test_trace_buffers_at_the_work_cap_stay_small():
    # rank 1 over F_{2^7} with image a^63 and a period-4161 trace of random
    # states: 4161 x 63 + 1 = 2^18 letters, the verifier's work cap, in 116,508
    # coefficients (400 KB).  Parsing and verifying it peaked at 4.70 MiB of
    # tracemalloc (CPython 3.11) when the trace was read one coefficient at a
    # time; the whole-trace buffers may add at most a quarter to that
    p, s, period, image = 2, 7, 4161, "a" * 63
    assert period * len(image) + 1 == MAX_VERIFY_WORK
    field = field_create(p, s)
    field.log_tables()  # built before tracing, as a warm process holds them
    rng = random.Random(0)
    trace = [state_rows(field, random_projpoint(field, 1, rng).tuple._key)
             for _ in range(period)]
    raw = json.dumps({"format_version": 1, "rank": 1, "images": [image], "word": "a",
                      "p": p, "s": s, "period": period, "tuple": trace[0], "trace": trace,
                      "metadata": {"seed": 0}}).encode()
    tracemalloc.start()
    try:
        verdict = verify_certificate(certificate_from_bytes(raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.status for c in verdict.checks[:3]] == ["pass"] * 3
    assert peak <= 1.25 * 4.70 * 2**20, f"peak {peak / 2**20:.2f} MiB"


# -- the byte route against json.loads -------------------------------------------

def _json_route(raw: bytes):
    """The certificate, or the message of the format error, that reading raw
    with json.loads and certificate_from_dict gives."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        return f"malformed certificate: not valid JSON: {exc}"
    try:
        return certificate_from_dict(data)
    except CertificateFormatError as exc:
        return str(exc)


def _byte_route(raw: bytes):
    try:
        return certificate_from_bytes(raw)
    except CertificateFormatError as exc:
        return str(exc)


def _command_route(raw: bytes):
    """The verdict, or the message of the format error, that `verify` gives."""
    try:
        return certify.verify_bytes(raw)
    except CertificateFormatError as exc:
        return str(exc)


def _json_verdict(raw: bytes):
    """The same for the json.loads route."""
    cert = _json_route(raw)
    return cert if isinstance(cert, str) else verify_certificate(cert)


@pytest.fixture(scope="module")
def certificate_bytes(bs12_cert, swapmix_cert):
    # one-digit coefficients from the search (ranks 1 and 2), and rows of
    # several digits, over F_{257^2} and F_1048573
    return [bs12_cert.to_bytes(), swapmix_cert.to_bytes()] + [
        certificate_from_dict(_lane_case(p, s)).to_bytes() for p, s in ((257, 2), (1048573, 1))]


def _reordered(draw, raw: bytes) -> bytes:
    """raw with its top-level keys in a drawn order, and maybe one key repeated
    at the end with a drawn value."""
    pairs = draw(st.permutations(list(json.loads(raw).items())))
    if draw(st.booleans()):
        key = draw(st.sampled_from(pairs))[0]
        pairs.append((key, draw(st.sampled_from(
            [value for _, value in pairs] + [True, [], [[[[0]]]], "trace"]))))
    return ("{" + ",".join(f"{json.dumps(k)}:{json.dumps(v, separators=(',', ':'))}"
                           for k, v in pairs) + "}").encode()


EDITS = ["space", "space_after_digit", "leading_zero", "minus", "exponent", "fraction", "bom",
         "non_ascii_word", "trace_in_word", "trace_in_metadata", "truncate", "byte", "drop"]


def _edited(draw, raw: bytes) -> bytes:
    """raw with one edit that json.dumps never makes."""
    kind = draw(st.sampled_from(EDITS))
    at = draw(st.sampled_from([i for i, c in enumerate(raw) if 48 <= c <= 57] or [0]))
    space = draw(st.sampled_from([b" ", b"\t", b"\n", b"\r\n", b"  \r\n\t"]))
    if kind == "space":  # anywhere: between tokens, in a number, in a string
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + space + raw[at:]
    if kind == "truncate":
        return raw[:draw(st.integers(0, max(len(raw) - 1, 0)))]
    if kind == "byte":  # a structural byte more, anywhere
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + draw(st.sampled_from(list(map(bytes, zip(b'{}[]",:x\\'))))) + raw[at:]
    if kind == "drop":  # a byte less, anywhere
        at = draw(st.integers(0, max(len(raw) - 1, 0)))
        return raw[:at] + raw[at + 1:]
    return {
        "space_after_digit": raw[:at + 1] + space + raw[at + 1:],
        "leading_zero": raw[:at] + b"0" + raw[at:],
        "minus": raw[:at] + b"-" + raw[at:],  # -0 is the integer 0
        "exponent": raw[:at + 1] + b"e0" + raw[at + 1:],
        "fraction": raw[:at + 1] + b".0" + raw[at + 1:],
        "bom": b"\xef\xbb\xbf" + raw,
        "non_ascii_word": raw.replace(b'"word":"', '"word":"\u00e9'.encode(), 1),
        "trace_in_word": raw.replace(b'"word":"', b'"word":"\\"trace\\":[[[[0]]]],', 1),
        "trace_in_metadata": raw.replace(b'"metadata":{',
                                         b'"metadata":{"trace":[[[[0]]]],"tuple":"]",', 1),
    }[kind]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_byte_route_reads_what_json_loads_reads(certificate_bytes, data):
    # certificate_from_bytes reads the trace and tuple off the bytes when it
    # can; on any text it gives json.loads's certificate or its first message,
    # and verify_bytes the verdict on that certificate or the same message
    raw = data.draw(st.sampled_from(certificate_bytes))
    if data.draw(st.booleans()):
        raw = _reordered(data.draw, raw)
    for _ in range(data.draw(st.integers(0, 3))):
        raw = _edited(data.draw, raw)
    assert _byte_route(raw) == _json_route(raw)
    assert _command_route(raw) == _json_verdict(raw)


@pytest.mark.parametrize("key,earlier,later", [
    ("trace", b"[[[[1],{[0],[0],[1]]]]", None),  # an earlier array that is not JSON
    ("trace", b"true", None),
    ("trace", None, b"[]"),
    ("tuple", b"[[[1],[0],[0],[1]]", None),
    ("tuple", None, b"[[[0],[0],[0],[1]],[[1],[0],[0],[1]]]"),
    ("rank", None, b"3"),
])
def test_a_repeated_key_reads_as_json_loads_reads_it(swapmix_cert, key, earlier, later):
    # the last value of a key counts, but every earlier one must be JSON too
    raw = swapmix_cert.to_bytes()
    if earlier is not None:
        raw = b'{"%s":%s,%s' % (key.encode(), earlier, raw[1:])
    if later is not None:
        raw = b'%s,"%s":%s}' % (raw.rstrip()[:-1], key.encode(), later)
    assert _byte_route(raw) == _json_route(raw)


_ESCAPED = b'"tr\\u0061ce"'  # the key "trace" spelled with an escape


def _one_entry(raw: bytes) -> bytes:
    return json.dumps(json.loads(raw)["trace"][:1], separators=(",", ":")).encode()


@pytest.mark.parametrize("edit,falls_back", [
    (lambda raw: raw.replace(b'"trace"', _ESCAPED), True),
    # json.loads keeps the escaped key's value, here a trace of one entry
    (lambda raw: raw.rstrip()[:-1] + b",%s:%s}" % (_ESCAPED, _one_entry(raw)), True),
    (lambda raw: b"{%s:[]," % _ESCAPED + raw[1:], False),
    (lambda raw: b'{"x\\"trace":[[[[0]]]],' + raw[1:], False),
    (lambda raw: raw.replace(b'"word":"a"', b'"word":"\\u0061"')
                    .replace(b'"quasifix ', b'"quasifix\\/'), False),
    (lambda raw: b'{"trace":[],' + raw[1:], False),
    # the file's own 0, or its own NaN, is the last top-level value of "trace"
    (lambda raw: raw.rstrip()[:-1] + b",%s:0}" % _ESCAPED, True),
    (lambda raw: raw.replace(b'"trace":', b'"trace":0,"metadata":{"trace":')
                    .replace(b',"tuple":', b'},"tuple":'), True),
    (lambda raw: raw.replace(b'"trace":', b'"trace":NaN,"metadata":{"trace":')
                    .replace(b',"tuple":', b'},"tuple":'), True),
], ids=["escaped", "escaped_after", "escaped_before", "key_tail", "escapes_elsewhere",
        "repeated", "escaped_zero_after", "own_zero", "own_nan"])
def test_the_readback_alone_chooses_the_route(swapmix_cert, monkeypatch, edit, falls_back):
    # escapes and repeated names leave the byte route only when the readback,
    # json.loads of the text with each array cut out, does not find the two
    # arrays as the last top-level values of "trace" and "tuple"
    raw = edit(swapmix_cert.to_bytes())
    from_dict, calls = certify.certificate_from_dict, []
    monkeypatch.setattr(certify, "certificate_from_dict",
                        lambda data: calls.append(data) or from_dict(data))
    assert _byte_route(raw) == _json_route(raw)
    assert len(calls) == falls_back


@pytest.mark.parametrize("key", ["trace", "tuple"])
@pytest.mark.parametrize("suffix", [b".0", b"e0", b" 0"])
def test_a_number_after_an_array_reads_as_json_loads_reads_it(swapmix_cert, key, suffix):
    # the byte route reads the text with the array cut out: a fraction or an
    # exponent after it must not make a number of the 0 put in its place
    raw = swapmix_cert.to_bytes()
    at = raw.index(b',"', raw.index(b'"%s":' % key.encode()))
    raw = raw[:at] + suffix + raw[at:]
    assert _byte_route(raw) == _json_route(raw)
    assert _json_route(raw).startswith("malformed certificate: not valid JSON")


@pytest.mark.parametrize("edit,message,falls_back", [
    (lambda raw: b"[" + raw.rstrip() + b"]", "top level must be an object", True),
    (lambda raw: raw.replace(b'"images":["ab","ba"]', b'"images":"ab"'),
     "images must be a list of strings", False),
    (lambda raw: raw.replace(b'"images":["ab","ba"]', b'"images":["a",1]'),
     "images must be a list of strings", False),
    (lambda raw: raw.replace(b'"metadata":{"generator":"quasifix 0.1.0","seed":0}',
                             b'"metadata":[0]'), "metadata must be an object", False),
], ids=["top_level", "images_string", "images_mixed", "metadata"])
def test_the_header_refusals_are_named(swapmix_cert, monkeypatch, edit, message, falls_back):
    # a header the byte route reads is refused as certificate_from_dict refuses
    # the object json.loads gives
    raw = edit(swapmix_cert.to_bytes())
    from_dict, calls = certify.certificate_from_dict, []
    monkeypatch.setattr(certify, "certificate_from_dict",
                        lambda data: calls.append(data) or from_dict(data))
    with pytest.raises(CertificateFormatError, match=f"^malformed certificate: {message}$"):
        certificate_from_bytes(raw)
    assert len(calls) == falls_back
    assert _json_route(raw) == f"malformed certificate: {message}"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer digit limit before Python 3.11")
def test_a_coefficient_past_the_digit_limit_falls_back_to_json_loads():
    # a canonical rank-1 file with one 4,301-digit coefficient: the byte route
    # cannot convert it, so json.loads reads the file and refuses it by name
    raw = (b'{"format_version":1,"images":["a"],"metadata":{"seed":0},"p":5,"period":1,'
           b'"rank":1,"s":1,"trace":[[[[%s],[0],[0],[1]]]],"tuple":[[[1],[0],[0],[1]]],'
           b'"word":"a"}\n' % (b"1" * 4301))
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert certify._flat_certificate(raw) is None
        with pytest.raises(CertificateFormatError) as err:
            certificate_from_bytes(raw)
        assert str(err.value) == _json_route(raw)
        assert "Exceeds the limit (4300 digits)" in str(err.value)
        sys.set_int_max_str_digits(0)  # no limit: the byte route reads the file
        assert certify._flat_certificate(raw) is not None
        assert certificate_from_bytes(raw) == certificate_from_dict(json.loads(raw))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("p,s", [(257, 1), (257, 2), (65521, 1), (1048573, 1)])
def test_one_digit_coefficients_over_wide_lanes_verify_as_read(p, s):
    # every coefficient is one digit, so the byte route reads the trace into
    # bytes, which trace_indices must take one coefficient to a byte though
    # p > 256 gives wider lanes: the command's verdict is the nested trace's
    one, zero, two = [1] + [0] * (s - 1), [0] * s, [2] + [0] * (s - 1)
    raw = json.dumps(_ingest_object(p, s, 1, [[[one, zero, zero, one]], [[one, two, zero, one]],
                                              [[two, zero, one, one]]])).encode()
    assert type(certify._flat_certificate(raw)[2]) is bytes
    verdict = certify.verify_bytes(raw)
    assert verdict == verify_certificate(certificate_from_dict(json.loads(raw)))
    assert verdict.checks[0].status == "pass"


_LONG_ROWS = [[[1] * 10**5] * 4] * 2  # one rank-2 entry, 8 rows of 10^5 ones (1.6 MB)


@pytest.mark.parametrize("field_edit", [
    {"p": 1000000000000000003},        # 19-digit prime
    {"p": 9999999943 * 9999999967},    # 20-digit composite, no factor below 10^9
    {"s": 10**9},
    {"p": 2, "s": 10**5, "period": 1, "tuple": _LONG_ROWS, "trace": [_LONG_ROWS]},
], ids=["prime19", "composite20", "s1e9", "s1e5_long_rows"])
def test_verifier_bounds_untrusted_p_and_s(swapmix_cert, field_edit):
    # p and s are checked against the cap before primality or p**s runs, and
    # rows of an over-cap field are range-checked, not folded into p**s-sized ints
    cert = mutate(swapmix_cert, lambda d: d.update(field_edit))
    start = time.perf_counter()
    verdict = verify_certificate(cert)
    elapsed = time.perf_counter() - start
    assert verdict.failures == ["structure"]
    assert "exceeds cap" in verdict.checks[0].detail
    assert elapsed < 1.0, f"rejecting {field_edit} took {elapsed:.2f}s"


def test_verifier_bounds_image_work():
    # rank 1 over F_10007 with image a^20000 and a made-up period-50 trace
    # (21.8 KB): without a cap the verifier evaluates 10^6 image letters
    field = field_create(10007, 1)
    rng = random.Random(0)
    trace = [[[list(row) for row in
               state_rows(field, random_projpoint(field, 1, rng).tuple._key)[0]]]
             for _ in range(50)]
    raw = json.dumps({"format_version": 1, "rank": 1, "images": ["a" * 20000], "word": "a",
                      "p": 10007, "s": 1, "period": 50, "tuple": trace[0], "trace": trace,
                      "metadata": {"seed": 0}}).encode()
    assert len(raw) < 22_000
    start = time.perf_counter()
    verdict = verify_certificate(certificate_from_bytes(raw))
    elapsed = time.perf_counter() - start
    assert verdict.checks[0] == CheckResult(
        "structure", "fail",
        f"period x |images| + |word| = 1000001 exceeds work cap {MAX_VERIFY_WORK}")
    assert elapsed < 1.0, f"rejecting took {elapsed:.2f}s"


def test_empty_images_count_toward_the_work_cap():
    # an empty image still has a trace matrix per step, so it counts as one
    # letter and the work cap bounds period x rank: rank 512 with every image
    # empty at period 512 holds 262,144 trace matrices (in memory, one matrix
    # shared by all of them), where the images used to count for nothing
    rank, mat = 512, ((1,), (0,), (0,), (1,))
    assert verify_work(511, [""] * rank, "a") == 511 * 512 + 1 <= MAX_VERIFY_WORK
    cert = Certificate(rank=rank, images=("",) * rank, word="a", p=3, s=1, period=512,
                       trace=((mat,) * rank,) * 512, seed=0)
    verdict = verify_certificate(cert)
    assert verdict.checks[0] == CheckResult(
        "structure", "fail",
        f"period x |images| + |word| = 262145 exceeds work cap {MAX_VERIFY_WORK}")
    assert [c.status for c in verdict.checks[1:]] == ["skipped"] * 5


@pytest.mark.parametrize("period", [1, 0, -10**6])
def test_verifier_bounds_word_work(period):
    # rank 1 over F_5 with image a and a word of 10^6 letters (1.0 MB): the
    # word is counted in the cap, before it is parsed or evaluated, and a
    # period below 1 does not cancel it
    raw = json.dumps({"format_version": 1, "rank": 1, "images": ["a"], "word": "a" * 10**6,
                      "p": 5, "s": 1, "period": period, "tuple": [[[1], [0], [0], [1]]],
                      "trace": [[[[1], [0], [0], [1]]]], "metadata": {"seed": 0}}).encode()
    assert len(raw) > 10**6
    start = time.perf_counter()
    verdict = verify_certificate(certificate_from_bytes(raw))
    elapsed = time.perf_counter() - start
    cap = f"period x |images| + |word| = 1000001 exceeds work cap {MAX_VERIFY_WORK}"
    status, detail = verdict.checks[0].status, verdict.checks[0].detail
    assert status == "fail" and (detail == cap if period == 1 else detail.endswith("; " + cap))
    assert [c.status for c in verdict.checks[1:]] == ["skipped"] * 5
    assert elapsed < 1.0, f"rejecting took {elapsed:.2f}s"


def test_search_refuses_a_word_past_the_work_cap(monkeypatch):
    # the search applies the verifier's bound: a word that fits with one period
    # of the images is certified, one letter more is refused before any search
    monkeypatch.setattr(certify, "MAX_VERIFY_WORK", 5)
    ident = FreeEndo.parse(["a"], 1)
    out = search_certificate(ident, Word.parse("aaaa", 1))
    assert out.found and out.certificate.period == 1
    assert verify_certificate(out.certificate).passed
    with pytest.raises(CertifyError, match="work cap 5"):
        search_certificate(ident, Word.parse("aaaaa", 1))


def test_search_skips_orbits_over_the_work_cap(monkeypatch, swapmix_cert):
    # the period-4 orbit of swapmix_cert costs 4 x 4 image letters plus the
    # word's 1; under a cap of 13 the search must pass over every orbit its
    # verifier would refuse (it raises on a certificate that fails its own
    # verification)
    assert (swapmix_cert.p, swapmix_cert.period) == (5, 4)
    monkeypatch.setattr(certify, "MAX_VERIFY_WORK", 13)
    out = search_certificate(SWAPMIX, Word.parse("a", 2), CertifyConfig(s_max=1))
    assert out.found and (out.certificate.p, out.certificate.period) == (7, 3)
    assert verify_certificate(out.certificate).passed
    assert "work cap 13" in verify_certificate(swapmix_cert).checks[0].detail


def test_the_search_steps_only_inside_its_walks(monkeypatch):
    # each start is walked once: the cycle comes back from state_orbit, so
    # every kernel call of a search is a step that some walk counted, or one
    # step per trace state in the verification of the certificate it returns
    calls, walks, periods = [0], [], []

    def counting_step(phi, field):
        step = proj_step(phi, field)

        def counted(state):
            calls[0] += 1
            return step(state)
        return counted

    def recorded(*args):
        walks.append(state_orbit(*args))
        return walks[-1]

    monkeypatch.setattr(certify, "proj_step", counting_step)
    monkeypatch.setattr(certify, "state_orbit", recorded)
    for phi, text in ((BS12, "a"), (SWAPMIX, "a"), (SWAPMIX, "aB")):
        out = search_certificate(phi, Word.parse(text, phi.rank))
        assert out.found
        periods.append(out.certificate.period)
    assert any(walk.found and walk.period > 1 for walk in walks)
    assert calls[0] == sum(walk.steps for walk in walks) + sum(periods)


def _order_three_state(field):
    """[[0, -1], [1, -1]], of order 3 in PGL2: a -> a^2 sends it to its inverse."""
    entries = [field.from_int(v) for v in (0, field.p - 1, 1, field.p - 1)]
    return (Mat2.from_entries(field, entries).normalized().logs,)


def test_a_cycle_past_max_period_ends_the_walk_and_the_search_skips_it(monkeypatch):
    field = field_create(7, 1)
    step = proj_step(BS12, field)
    assert state_orbit(step, _order_three_state(field)).period == 2
    monkeypatch.setattr(certify, "_walk_start", lambda f, k, seed, index: _order_three_state(f))
    out = search_certificate(BS12, Word.parse("a", 1), CertifyConfig(s_max=1, seeds_per_field=1))
    assert out.found and out.certificate.period == 2
    monkeypatch.setattr(matrep, "MAX_PERIOD", 1)
    # Brent's hare meets the tortoise after 3 steps, holding one state of two
    assert state_orbit(step, _order_three_state(field)) == (False, None, 0, 3, "period")
    out = search_certificate(BS12, Word.parse("a", 1), CertifyConfig(s_max=1, seeds_per_field=1))
    assert not out.found and out.reason == "walks past the period cap: 6"
    assert (7, 1, 1) in out.frontier


def test_a_cycle_of_exactly_max_period_comes_back_whole(monkeypatch):
    # the hare keeps its MAX_PERIOD-th state: the cycle is held whole at the cap
    field = field_create(7, 1)
    step = proj_step(BS12, field)
    start = _order_three_state(field)
    monkeypatch.setattr(matrep, "MAX_PERIOD", 2)
    cycle = []
    assert state_orbit(step, start, cycle=cycle) == (True, start, 2, 3, "")
    assert cycle == [start, step(start)] and step(cycle[1]) == start
    monkeypatch.setattr(certify, "_walk_start", lambda f, k, seed, index: _order_three_state(f))
    out = search_certificate(BS12, Word.parse("a", 1), CertifyConfig(s_max=1, seeds_per_field=1))
    assert out.found and out.certificate.period == 2


def test_a_natural_cycle_of_max_period_states_certifies():
    # 319,489 divides 2^2048 + 1, so 2 has order 4,096 modulo it: a -> a^2 walks
    # the unipotent [[1, 1], [0, 1]] of order p in PGL2(F_319489) round a cycle
    # of exactly MAX_PERIOD states, the longest a certificate of the search has
    field = field_create(319489, 1)
    start = (Mat2.from_entries(field, [field.from_int(v) for v in (1, 1, 0, 1)]).logs,)
    cycle = []
    result = state_orbit(proj_step(BS12, field), start, cycle=cycle)
    assert (result.found, result.point, result.period) == (True, start, matrep.MAX_PERIOD)
    cert = Certificate(rank=1, images=("aa",), word="a", p=319489, s=1, period=result.period,
                       trace=tuple(state_rows(field, state) for state in cycle), seed=0)
    assert verify_certificate(cert).passed


# -- the walk-start table --------------------------------------------------------

def _fresh_start(field, k, seed, index):
    """The search's start drawn afresh on every call, as before it kept starts."""
    return random_state(field, k, random.Random(f"{seed}:{field.p}:{field.m}:{index}"))


def _clear_starts(monkeypatch):
    monkeypatch.setattr(certify, "_STARTS", OrderedDict())
    monkeypatch.setattr(certify, "_start_matrices", 0)


def test_kept_starts_are_the_draws_of_their_keys(monkeypatch):
    _clear_starts(monkeypatch)
    for (p, s), k, seed, index in zip(
            [(3, 1), (5, 1), (2, 3), (3, 2), (7, 2), (11, 1)] * 3,
            [1, 2, 3] * 6, [0, 1, 7, 2**40, 3, 0] * 3, range(0, 90, 5)):
        field = field_create(p, s)
        start = certify._walk_start(field, k, seed, index)
        assert start == _fresh_start(field_create(p, s), k, seed, index)
        rng = random.Random(f"{seed}:{p}:{s}:{index}")
        assert start == oracle_projpoint(field, k, rng).tuple._key
        assert certify._STARTS[p, s, k, seed, index] is start
        assert certify._walk_start(field, k, seed, index) is start
    assert certify._start_matrices == sum(key[2] for key in certify._STARTS) == 36


def _random_searches(n: int) -> list:
    """n (phi, w, config) of random injective endomorphisms of rank 1 to 3,
    with seeds 0 and 1, so that the searches share starts."""
    rng, searches = random.Random(39), []
    while len(searches) < n:
        k = rng.randrange(1, 4)
        letters = [x for i in range(1, k + 1) for x in (i, -i)]
        phi = FreeEndo([Word([rng.choice(letters) for _ in range(rng.randrange(1, 4))], k)
                        for _ in range(k)], k)
        w = Word([rng.choice(letters) for _ in range(rng.randrange(1, 4))], k)
        if not endo_is_injective(phi) or w.is_identity():
            continue
        searches.append((phi, w, CertifyConfig(s_max=2, seeds_per_field=3,
                                               orbit_budget=3000, seed=len(searches) % 2)))
    return searches


def test_searches_give_the_same_outcomes_whatever_the_table_holds(monkeypatch):
    searches = _random_searches(20)
    with monkeypatch.context() as fresh:
        fresh.setattr(certify, "_walk_start", _fresh_start)
        expected = [search_certificate(*search) for search in searches]
    assert sum(out.found for out in expected) >= 10

    _clear_starts(monkeypatch)
    assert [search_certificate(*search) for search in searches] == expected
    _clear_starts(monkeypatch)
    assert [search_certificate(*search) for search in reversed(searches)] == expected[::-1]
    _clear_starts(monkeypatch)
    for phi, w, config in searches:
        search_certificate(phi, w, config._replace(seed=config.seed + 5))
    assert len(certify._STARTS) > 0
    assert [search_certificate(*search) for search in searches] == expected
    # a bound below one search's starts drops starts while the searches run
    _clear_starts(monkeypatch)
    monkeypatch.setattr(certify, "MAX_KEPT_START_MATRICES", 7)
    assert [search_certificate(*search) for search in searches] == expected


def test_the_start_table_keeps_at_most_its_bound_oldest_out_first(monkeypatch):
    _clear_starts(monkeypatch)
    monkeypatch.setattr(certify, "MAX_KEPT_START_MATRICES", 5)
    field, drawn = field_create(5, 1), []
    for index, k in enumerate([2, 1, 2, 3, 1, 1, 2, 5, 1]):
        drawn.append((5, 1, k, 0, index))
        start = certify._walk_start(field, k, 0, index)
        assert len(start) == k
        kept = list(certify._STARTS)
        # the newest starts, as many as fit, in the order they were drawn
        assert kept == drawn[len(drawn) - len(kept):]
        assert sum(key[2] for key in kept) == certify._start_matrices <= 5
        if len(kept) < len(drawn):  # with the start dropped last they would not fit
            assert sum(key[2] for key in drawn[len(drawn) - len(kept) - 1:]) > 5
    # a start past the bound is returned and not kept, and leaves the table as it was
    kept = dict(certify._STARTS)
    start = certify._walk_start(field, 6, 0, 99)
    assert start == _fresh_start(field, 6, 0, 99) and dict(certify._STARTS) == kept
    # a dropped start is drawn again, the same
    assert (5, 1, 2, 0, 0) not in certify._STARTS
    assert certify._walk_start(field, 2, 0, 0) == _fresh_start(field, 2, 0, 0)


# -- fuzzing the verifier ------------------------------------------------------

FUZZ_P = [0, 1, 2, 3, 4, 5, 7, 9, 11, 13, 31, 64, 4093, -5]


def _fuzz_row(data, p, s):
    return data.draw(st.lists(st.integers(0, max(p - 1, 0)), min_size=s, max_size=s))


def _fuzz_mutate(d, data):
    """One random edit of a certificate's JSON object."""
    trace, s = d["trace"], max(d["s"], 1)
    kind = data.draw(st.sampled_from(["coefficient", "row", "zero_first", "field", "period",
                                      "images", "word", "order", "length", "head"]))
    if kind in ("coefficient", "row", "zero_first") and trace and trace[0]:
        entry = trace[data.draw(st.integers(0, len(trace) - 1))]
        j = data.draw(st.integers(0, len(entry) - 1))
        mat = entry[j] = [list(row) if isinstance(row, list) else row for row in entry[j]]
        if kind == "coefficient":
            row = mat[data.draw(st.integers(0, 3))]
            if isinstance(row, list) and row:
                row[data.draw(st.integers(0, len(row) - 1))] = data.draw(
                    st.integers(-2, max(d["p"], 0) + 2)
                    | st.sampled_from([10**40, True, None, "1"]))
        elif kind == "row":
            mat[data.draw(st.integers(0, 3))] = data.draw(
                st.lists(st.integers(-1, 6), max_size=3) | st.sampled_from([[], 0, "x", None]))
        else:  # a scalar-canonical matrix [[0, 1], [c, d]], invertible when c != 0
            zero = [0] * s
            entry[j] = [zero, [1] + zero[1:], _fuzz_row(data, d["p"], s),
                        _fuzz_row(data, d["p"], s)]
    elif kind == "field":
        p = data.draw(st.sampled_from(FUZZ_P))
        s_max = max((e for e in range(1, 13) if p < 2 or p**e <= 2**12), default=1)
        d["p"], d["s"] = p, data.draw(st.integers(0, s_max))
        if data.draw(st.booleans()):  # pad or cut every row to the new degree
            d["trace"] = [[[(row + [0] * d["s"])[:d["s"]] if isinstance(row, list) else row
                            for row in mat] for mat in entry] for entry in trace]
    elif kind == "period":
        d["period"] = data.draw(st.integers(-1, len(trace) + 2))
    elif kind == "images":
        d["images"] = data.draw(st.lists(st.text(alphabet="abcAB", max_size=4),
                                         min_size=max(d["rank"] - 1, 0), max_size=d["rank"] + 1))
    elif kind == "word":
        d["word"] = data.draw(st.text(alphabet="abAB ", max_size=4))
    elif kind == "order":
        d["trace"] = data.draw(st.permutations(trace))
    elif kind == "length" and trace:
        i = data.draw(st.integers(0, len(trace) - 1))
        d["trace"] = data.draw(st.sampled_from([trace[:i], trace + [trace[i]],
                                                trace[:i] + trace[i + 1:]]))
    if kind != "head":
        d["tuple"] = d["trace"][0] if d["trace"] else []


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_verifier_fuzzed_certificates_match_naive_oracle(criterion6_outcomes, data):
    # every mutation of a criterion-6 certificate gives a verdict (or a format
    # error) within 2 s; when the structure check passes, every check after it
    # must agree, detail for detail, with naive field-element matrix arithmetic
    out = data.draw(st.sampled_from(criterion6_outcomes))
    d = json.loads(out.certificate.to_bytes())
    for _ in range(data.draw(st.integers(1, 3))):
        _fuzz_mutate(d, data)
    start = time.perf_counter()
    try:
        cert = certificate_from_bytes(json.dumps(d).encode())
    except CertificateFormatError:
        return
    verdict = verify_certificate(cert)
    assert time.perf_counter() - start < 2.0
    if verdict.checks[0].status == "pass":
        assert [(c.name, c.status, c.detail) for c in verdict.checks] == naive_verdict(cert)


SMALL_FIELDS = [(5, 1), (3, 2), (2, 3), (3, 3)]  # F_5, F_9, F_8, F_27
NEXT_PRIME = {2: 3, 3: 5, 5: 7}  # keeps every coefficient in range


def _small_certificate(data) -> Certificate:
    """A random rank 1-2 certificate over a small field: the orbit of a random
    start when it closes within 400 steps with period at most 24, else the
    first one to four states of its walk; rotated, with a random word."""
    p, s = data.draw(st.sampled_from(SMALL_FIELDS))
    k = data.draw(st.integers(1, 2))
    alphabet = "aA" if k == 1 else "abAB"
    phi = FreeEndo.parse([data.draw(st.text(alphabet=alphabet, min_size=1, max_size=3))
                          for _ in range(k)], k)
    w = Word.parse(data.draw(st.text(alphabet=alphabet, min_size=1, max_size=4)), k)
    if w.is_identity():
        w = Word.parse("a", k)
    field = field_create(p, s)
    start = random_projpoint(field, k, random.Random(data.draw(st.integers(0, 2**32))))
    result = find_periodic_orbit(phi, start, budget=400)
    if result.found and result.period <= 24:
        states, length = [result.point.tuple._key], result.period
    else:
        states, length = [start.tuple._key], data.draw(st.integers(1, 4))
    step = proj_step(phi, field)
    while len(states) < length:
        states.append(step(states[-1]))
    r = data.draw(st.integers(0, len(states) - 1))
    states = states[r:] + states[:r]
    return Certificate(rank=k, images=tuple(x.to_text() for x in phi.images),
                       word=w.to_text(), p=p, s=s, period=len(states),
                       trace=tuple(state_rows(field, x) for x in states), seed=0)


def _tamper(d: dict, data) -> None:
    """One edit that keeps the structure check passing."""
    trace, s = d["trace"], d["s"]
    i = data.draw(st.integers(0, len(trace) - 1))
    j = data.draw(st.integers(0, d["rank"] - 1))
    one, zero = [1] + [0] * (s - 1), [0] * s
    kind = data.draw(st.sampled_from(["none", "singular", "noncanonical", "swapped",
                                      "doubled", "wrong_prime"]))
    if kind == "singular":  # [[1, c], [0, 0]]: canonical, determinant 0
        trace[i][j] = [one, data.draw(st.lists(st.integers(0, d["p"] - 1),
                                               min_size=s, max_size=s)), zero, zero]
    elif kind == "noncanonical":  # first entry 2 in F_5, the generator x otherwise
        trace[i][j][0] = [2] if s == 1 else [0, 1] + [0] * (s - 2)
    elif kind == "swapped" and len(trace) > 1:
        i2 = (i + 1 + data.draw(st.integers(0, len(trace) - 2))) % len(trace)
        trace[i], trace[i2] = trace[i2], trace[i]
    elif kind == "doubled":  # the orbit walked twice: the period is not minimal
        trace.extend(json.loads(json.dumps(trace)))
        d["period"] = len(trace)
    elif kind == "wrong_prime":
        d["p"] = NEXT_PRIME[d["p"]]
    d["tuple"] = trace[0]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_small_certificate_verdicts_match_naive_oracle(data):
    # random small certificates over F_5, F_9, F_8 and F_27, valid or not, and
    # tampered copies (a singular or non-canonical matrix, two trace entries
    # swapped, the trace walked twice, the next prime): the whole verdict,
    # details included, equals the one built from naive field-element products
    d = json.loads(_small_certificate(data).to_bytes())
    _tamper(d, data)
    cert = certificate_from_bytes(json.dumps(d).encode())
    verdict = verify_certificate(cert)
    assert verdict.checks[0].status == "pass"
    assert [(c.name, c.status, c.detail) for c in verdict.checks] == naive_verdict(cert)


# -- the Frobenius shortcut behind the search ---------------------------------

def test_projective_quasi_fixed_points_are_periodic():
    # tuples with lift(h) = Frobenius^m(h) projectively must be periodic with
    # period dividing s / gcd(m, s)
    field = field_create(3, 2)
    phi = BS12
    rng = random.Random(0)
    checked = 0
    for _ in range(400):
        h = random_projpoint(field, 1, rng)
        lifted = pgl_dynamics_step(phi, h)
        for m in (1, 2):
            frobbed = ProjPoint(MatTuple(x.normalized()
                                         for x in tuple_frobenius(h.tuple, m).mats))
            if lifted == frobbed:
                bound = 2 // math.gcd(m, 2)
                cur = h
                for _ in range(bound):
                    cur = pgl_dynamics_step(phi, cur)
                assert cur == h
                res = find_periodic_orbit(phi, h, budget=100)
                assert res.found and bound % res.period == 0
                checked += 1
    assert checked > 0
