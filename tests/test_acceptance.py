"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to watch).

Expected values come from independent oracles computed inside this module
or from hand analysis recorded next to each case; nothing is trusted from
the code paths under test.
"""

import itertools
import json
import random
import time

import pytest

from oracles import elements, naive_eval, oracle_quasi_fixed, tuple_frobenius, witness_key_set
from quasifix.certify import (
    certificate_from_bytes,
    search_certificate,
    verify_certificate,
)
from quasifix.cli import main as cli_main
from quasifix.dynamics import (
    VarietySpec,
    containment_check,
    enumerate_quasi_fixed,
    find_quasi_fixed_avoiding,
)
from quasifix.freegroup import FreeEndo, Word, endo_is_injective, stallings_fold, subgroup_rank
from quasifix.gf import field_create
from quasifix.matrep import MatTuple, Mat2, pi_w
from quasifix.poly import IqSystem, MPoly, PolyMap, parse_poly


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalence on ~200 catalog maps, < 60 s

def exponent_vectors(nvars: int, maxdeg: int):
    return [e for e in itertools.product(range(maxdeg + 1), repeat=nvars)
            if sum(e) <= maxdeg]


def random_map(rng: random.Random, nvars: int, p: int) -> PolyMap:
    vecs = exponent_vectors(nvars, 3)
    coords = []
    for _ in range(nvars):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            terms[rng.choice(vecs)] = rng.randrange(p)
        coords.append(MPoly(nvars, p, terms))
    return PolyMap(coords)


def catalog_maps() -> list[PolyMap]:
    rng = random.Random(20260811)
    maps = [
        PolyMap.identity(1, 2),
        PolyMap.parse(["x1^2"], 1, 2),       # Frobenius over F2
        PolyMap.parse(["x1^3"], 1, 3),       # Frobenius over F3
        PolyMap.parse(["x1*x2", "0"], 2, 2),
        PolyMap.parse(["x2", "0"], 2, 2),
    ]
    for p in (2, 3, 5):
        maps.extend(random_map(rng, 1, p) for _ in range(39))
    maps.extend(random_map(rng, 2, 2) for _ in range(38))
    maps.extend(random_map(rng, 2, 3) for _ in range(30))
    maps.extend(random_map(rng, 2, 5) for _ in range(10))
    return maps


def test_criterion_1_oracle_equivalence():
    maps = catalog_maps()
    assert len(maps) == 200
    start = time.time()
    for pmap in maps:
        lib = witness_key_set(enumerate_quasi_fixed(pmap, 3))
        assert lib == oracle_quasi_fixed(pmap, 3), f"mismatch for {pmap!r}"
    elapsed = time.time() - start
    report(1, elapsed < 60,
           f"{len(maps)} maps match the brute-force oracle exactly in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: containment in the analytically known image closure

CONTAINMENT_CASES = [
    # (map texts, nvars, p, variety texts, note)
    (["x1*x2", "0"], 2, 2, ["x1", "x2"], "stable image is the origin"),
    (["x1*x2", "0"], 2, 3, ["x1", "x2"], "stable image is the origin"),
    (["x2", "0"], 2, 2, ["x1", "x2"], "second iterate collapses to the origin"),
    (["2", "0"], 2, 3, ["x1+1", "x2"], "constant map: image is the point (2, 0)"),
    (["x1", "x2"], 2, 2, [], "identity is dominant"),
    (["x1^2"], 1, 3, [], "squaring is dominant"),
    (["x1^2"], 1, 2, [], "Frobenius is dominant"),
    (["x1+x2", "x1*x2"], 2, 2, [], "elementary-symmetric map is dominant"),
    (["x1^2", "x1*x2"], 2, 2, [], "dominant: generic fibers are nonempty"),
    (["x1^2+x1"], 1, 2, [], "nonconstant univariate maps are dominant"),
]


def test_criterion_2_containment():
    checked = 0
    for texts, nvars, p, v_texts, _note in CONTAINMENT_CASES:
        pmap = PolyMap.parse(texts, nvars, p)
        v = VarietySpec.parse(v_texts, nvars, p)
        rep = containment_check(pmap, v, 3)
        assert rep.ok, f"violations for {texts}: {rep.violations}"
        checked += rep.checked
    report(2, True, f"10 maps, {checked} witnesses, zero containment violations")


# ---------------------------------------------------------------------------
# criterion 3: density search succeeds with s <= 4 on dominant/proper-W pairs

DENSITY_CASES = [
    # (map texts, nvars, p, avoid polynomial, expected max s)
    (["x1"], 1, 2, "x1", 1),                 # W = {0}
    (["x1"], 1, 3, "x1^2+2*x1", 1),          # W = {0, 1}
    (["x1^2"], 1, 3, "x1^2+2*x1", 4),        # first witness: 5th root of unity
    (["x1^3"], 1, 3, "x1^3+2*x1", 2),        # W = F_3
    (["x1^2"], 1, 2, "x1^2+x1", 2),          # W = F_2, Frobenius map
    (["x1", "x2"], 2, 2, "x1+x2", 1),        # W = diagonal
    (["x2", "x1"], 2, 2, "x1+x2", 2),        # swap map, W = diagonal
    (["x1"], 1, 5, "x1", 1),                 # W = {0}
    (["x1^5"], 1, 5, "x1^5+4*x1", 2),        # W = F_5, Frobenius map
    (["x1^2", "x2"], 2, 3, "x2", 1),         # W = {y = 0}
]


def test_criterion_3_density():
    start = time.time()
    for texts, nvars, p, avoid, max_s in DENSITY_CASES:
        pmap = PolyMap.parse(texts, nvars, p)
        w_spec = parse_poly(avoid, nvars, p)
        witness = find_quasi_fixed_avoiding(pmap, VarietySpec(), w_spec, 4)
        assert witness is not None, f"no witness for {texts} avoiding {avoid}"
        assert witness.field_degree <= max_s
        # independent re-verification with the naive evaluator
        for f, a in zip(pmap.coords, witness.point):
            assert naive_eval(f, witness.point) == a.frobenius(witness.m)
        assert not naive_eval(w_spec, witness.point).is_zero()
    elapsed = time.time() - start
    report(3, elapsed < 120,
           f"10 dominant/proper-W pairs produced verified witnesses at s <= 4 "
           f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: quotient dimension Q^n and iterate congruences

IQ_CASES = [
    (["x1^2"], 1, 2, 4),
    (["x1^2"], 1, 2, 8),
    (["x1^3+x1"], 1, 2, 4),
    (["x1^3+x1"], 1, 2, 8),
    (["x1+x2", "x1*x2"], 2, 2, 4),
    (["x1+x2", "x1*x2"], 2, 2, 8),
    (["x1^2+x2", "x1"], 2, 2, 4),
    (["x1^2"], 1, 3, 9),
    (["x1^3+2*x1"], 1, 3, 9),
    (["x1*x2", "x1+x2"], 2, 3, 9),
]


def test_criterion_4_iq_length_and_congruence():
    for texts, nvars, p, Q in IQ_CASES:
        system = IqSystem(PolyMap.parse(texts, nvars, p), Q)
        assert system.quotient_dimension() == Q**nvars, f"dimension off for {texts}, Q={Q}"
        for j in (1, 2):
            assert system.iterate_congruence_check(j), f"congruence failed {texts} j={j}"
    report(4, True, f"{len(IQ_CASES)} systems: dimension Q^n exact, "
                    f"iterate congruence holds for j in {{1, 2}}")


# ---------------------------------------------------------------------------
# criterion 5: Frobenius equivariance, exhaustive over F4 and F9

def test_criterion_5_frobenius_equivariance():
    rng = random.Random(5)
    checked = 0
    for p, m in ((2, 2), (3, 2)):
        field = field_create(p, m)
        points1 = [(a,) for a in elements(field)]
        points2 = list(itertools.product(elements(field), repeat=2))
        for _ in range(10):
            nvars = rng.choice([1, 2])
            pmap = random_map(rng, nvars, p)
            points = points1 if nvars == 1 else points2
            for f in pmap.coords:
                for pt in points:
                    for e in (1, 2):
                        lhs = f.evaluate(tuple(a.frobenius(e) for a in pt))
                        rhs = f.evaluate(pt).frobenius(e)
                        assert lhs == rhs
                        checked += 1
    # lifted-map equivariance on random tuples
    for p, m in ((2, 2), (3, 2)):
        field = field_create(p, m)
        for images in (["ab", "ba"], ["aa", "ab"], ["ab", "bA"]):
            phi = FreeEndo.parse(images, 2)

            def lift(t):
                return MatTuple(pi_w(w, t) for w in phi.images)

            for _ in range(25):
                t = MatTuple(tuple(
                    Mat2.from_entries(field, [field.from_int(rng.randrange(field.order))
                                              for _ in range(4)])
                    for _ in range(2)))
                for e in (1, 2):
                    assert lift(tuple_frobenius(t, e)) == tuple_frobenius(lift(t), e)
                    checked += 1
    report(5, True, f"zero equivariance violations across {checked} exact checks")


# ---------------------------------------------------------------------------
# criterion 6: certificates end to end

def test_criterion_6_certificates_end_to_end():
    start = time.time()
    jobs = [(FreeEndo.parse(["aa"], 1), text) for text in ("a", "aa")]
    swapmix = FreeEndo.parse(["ab", "ba"], 2)
    letters = ["a", "b", "A", "B"]
    length_two = [x + y for x in letters for y in letters
                  if len(Word.parse(x + y, 2).letters) == 2]
    jobs.extend((swapmix, text) for text in letters + length_two)
    produced = 0
    for phi, text in jobs:
        w = Word.parse(text, phi.rank)
        outcome = search_certificate(phi, w)
        assert outcome.found, f"no certificate for {text!r}"
        blob = outcome.certificate.to_bytes()
        verdict = verify_certificate(certificate_from_bytes(blob))
        assert verdict.passed, f"verification failed for {text!r}: {verdict.failures}"
        wreath_check = [c for c in verdict.checks if c.name == "wreath_relations"]
        assert wreath_check[0].status == "pass"
        produced += 1
    elapsed = time.time() - start
    report(6, elapsed < 600,
           f"{produced} certificates produced and independently verified "
           f"(wreath relations included) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: verifier negative paths, one named failure per mutation class

def _mutate(cert, edit):
    data = json.loads(cert.to_bytes())
    edit(data)
    return certificate_from_bytes(json.dumps(data).encode())


def test_criterion_7_mutation_classes():
    base = search_certificate(FreeEndo.parse(["ab", "ba"], 2), Word.parse("a", 2)).certificate
    assert base.period >= 3
    s, p = base.s, base.p
    ident_mat = [[1] + [0] * (s - 1), [0] * s, [0] * s, [1] + [0] * (s - 1)]
    singular_mat = [[1] + [0] * (s - 1), [0] * s, [0] * s, [0] * s]

    def padded_period(d):
        d["period"] += 1
        d["trace"].append(d["trace"][0])

    def scalar_tuple(d):
        d["period"] = 1
        d["trace"] = [[ident_mat, ident_mat]]
        d["tuple"] = [ident_mat, ident_mat]

    def singular(d):
        d["trace"][0][0] = singular_mat
        d["tuple"][0] = singular_mat

    def denormalize(d):
        for mat in d["trace"][1]:
            for row in mat:
                for i, c in enumerate(row):
                    row[i] = (2 * c) % p

    def tamper_entry(d):
        row = d["trace"][1][0][3]
        row[0] = (row[0] + 1) % p

    mutations = [
        ("wrong period (padded trace)", padded_period, "condition_ii"),
        ("wrong period (field only)", lambda d: d.__setitem__("period", d["period"] + 1),
         "structure"),
        ("swapped orbit entries",
         lambda d: d.__setitem__("trace", d["trace"][:1] + [d["trace"][2], d["trace"][1]]
                                 + d["trace"][3:]), "condition_ii"),
        ("scalar tuple", scalar_tuple, "condition_iii"),
        ("singular matrix", singular, "tuple_in_group"),
        ("wrong prime", lambda d: d.__setitem__("p", 7), "condition_ii"),
        ("tampered images", lambda d: d.__setitem__("images", ["ab", "bb"]),
         "condition_ii"),
        ("tampered trace entry", tamper_entry, "condition_ii"),
        ("denormalized entries", denormalize, "tuple_in_group"),
        ("head/trace mismatch", lambda d: d.__setitem__("tuple", d["trace"][1]),
         "structure"),
    ]
    for name, edit, expected in mutations:
        verdict = verify_certificate(_mutate(base, edit))
        assert not verdict.passed, f"{name}: mutation passed verification"
        assert expected in verdict.failures, \
            f"{name}: expected {expected} among {verdict.failures}"
    report(7, True, "10 mutation classes each fail naming the violated condition")


# ---------------------------------------------------------------------------
# criterion 8: injectivity gate against hand-folded graphs

INJECTIVITY_CASES = [
    (2, ["a", "b"], 2, True),        # whole group
    (2, ["ab", "ba"], 2, True),      # folded core: 2 independent loops
    (1, ["aa"], 1, True),            # 2-cycle, rank 1
    (2, ["b", "a"], 2, True),        # swap automorphism
    (2, ["ab", "b"], 2, True),       # Nielsen transformation
    (2, ["aa", "bb"], 2, True),      # two 2-cycles wedged, rank 2
    (2, ["a", "a"], 1, False),       # single loop after folding
    (2, ["ab", "ab"], 1, False),     # duplicate generators fold together
    (2, ["", "b"], 1, False),        # identity image contributes nothing
    (1, [""], 0, False),             # trivial image, rank 0
    (3, ["ab", "ba", "ab"], 2, False),
    (2, ["aa", "aaaa"], 1, False),   # nested powers fold to one 2-cycle
]


def test_criterion_8_injectivity_gate():
    for rank, images, expected_rank, expected in INJECTIVITY_CASES:
        phi = FreeEndo.parse(images, rank)
        folded = stallings_fold(phi.images, rank)
        assert subgroup_rank(folded) == expected_rank, f"rank off for {images}"
        assert endo_is_injective(phi) == expected, f"gate wrong for {images}"
    report(8, True, "12-case suite classified exactly as the hand foldings say")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical certificates for identical seeds

def test_criterion_9_determinism(tmp_path, capsys):
    endo_path = tmp_path / "endo.json"
    endo_path.write_text(json.dumps({"rank": 2, "images": ["ab", "ba"]}))
    blobs = []
    for name in ("first.json", "second.json"):
        out_path = tmp_path / name
        code = cli_main(["certify", "--endo", str(endo_path), "--word", "ab",
                         "--seed", "11", "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        blobs.append(out_path.read_bytes())
    assert blobs[0] == blobs[1]
    report(9, True, "identical seeds give byte-identical certificate files")
