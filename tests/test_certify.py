import hashlib
import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    naive_is_scalar,
    naive_normalized,
    naive_verdict,
    naive_word_value,
    tuple_frobenius,
)
from quasifix import certify
from quasifix.certify import (
    Certificate,
    CertificateFormatError,
    CertifyConfig,
    CertifyError,
    MAX_VERIFY_WORK,
    CheckResult,
    admissible_primes,
    build_wreath,
    certificate_from_bytes,
    certificate_from_dict,
    search_certificate,
    verify_certificate,
)
from quasifix.freegroup import (
    FreeEndo,
    IntMatrix2,
    Word,
    endo_is_injective,
    nonscalar_sanity_check,
    sanov_embed,
)
from quasifix.gf import field_create, is_prime
from quasifix.matrep import (
    Mat2,
    MatTuple,
    SingularMatrixError,
    find_periodic_orbit,
    pgl_dynamics_step,
    pi_w,
    proj_normalize,
    proj_step,
    random_projpoint,
    state_from_rows,
    state_rows,
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
                  if len(Word.parse(x + y, 2)) == 2]
    jobs = [(BS12, "a"), (BS12, "aa")] + [(SWAPMIX, t) for t in letters + length_two]
    return [search_certificate(phi, Word.parse(text, phi.rank)) for phi, text in jobs]


def wreath_inputs(cert: Certificate):
    """The parsed endomorphism, word, field and states that verify_certificate holds."""
    field = field_create(cert.p, cert.s)
    return (FreeEndo.parse(cert.images, cert.rank), Word.parse(cert.word, cert.rank),
            field, [state_from_rows(field, entry) for entry in cert.trace])


# -- prime selection ---------------------------------------------------------

def test_pick_prime_squaring_map():
    # integer oracle: the 4th iterate of a under a -> a^2 is a^16, whose
    # Sanov matrix is [[1, 32], [0, 1]]; only divisors of 32 are excluded
    mat = sanov_embed(Word.parse("a", 1) ** 16)
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
    assert out.reason == "budget exhausted"
    assert out.frontier == tuple((p, 1, 1) for p in (5, 7, 13, 19, 23, 29))  # MAX_PRIMES


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
    ident = FreeEndo.identity(1)
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
        assert row[(i + 1) % n] == (row[i] * row[i]).normalized()


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
    # identity endomorphism, period 1, over F_{1031^2}: p^s = 1062961 > 2^20
    one, zero, x = [1, 0], [0, 0], [0, 1]
    cert = certificate_from_dict({
        "format_version": 1, "rank": 1, "images": ["a"], "word": "a",
        "p": 1031, "s": 2, "period": 1, "tuple": [[one, x, zero, one]],
        "trace": [[[one, x, zero, one]]], "metadata": {"seed": 0}})
    assert verify_certificate(cert, order_cap=2**22).passed
    assert verify_certificate(cert).failures == ["structure"]


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


@pytest.mark.parametrize("field_edit", [
    {"p": 1000000000000000003},        # 19-digit prime
    {"p": 9999999943 * 9999999967},    # 20-digit composite, no factor below 10^9
    {"s": 10**9},
], ids=["prime19", "composite20", "s1e9"])
def test_verifier_bounds_untrusted_p_and_s(swapmix_cert, field_edit):
    # p and s are checked against the cap before primality or p**s runs
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
    ident = FreeEndo.identity(1)
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
    try:
        while len(states) < length:
            states.append(step(states[-1]))
    except SingularMatrixError:
        pass
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
            frobbed = proj_normalize(tuple_frobenius(h.tuple, m))
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
