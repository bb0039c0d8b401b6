import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_fold
from quasifix.freegroup import (
    FreeEndo,
    IntMatrix2,
    Word,
    WordError,
    endo_is_injective,
    nonscalar_sanity_check,
    sanov_embed,
    stallings_fold,
    subgroup_rank,
    word_evaluate,
)


def test_parse_examples():
    assert Word.parse("abA", 2).letters == (1, 2, -1)
    assert Word.parse("aA", 2).is_identity()
    assert Word.parse("abBA", 2).is_identity()
    assert Word.parse("", 3).is_identity()
    assert Word.parse("x1X2x1", 2).letters == (1, -2, 1)


def test_parse_errors():
    with pytest.raises(WordError):
        Word.parse("ac", 2)  # c exceeds rank 2
    with pytest.raises(WordError):
        Word.parse("a1b", 2)
    with pytest.raises(WordError):
        Word.parse("x3", 2)


def test_indexed_text_roundtrip_past_rank_26():
    # past 26 generators there are no letters to spell them: to_text writes x27X1
    w = Word.parse("x27X1x3", 27)
    assert w.letters == (27, -1, 3)
    assert w.to_text() == "x27X1x3"


def test_text_roundtrip():
    rng = random.Random(2)
    for _ in range(50):
        w = random_word(rng, rank=3, length=rng.randrange(0, 10))
        assert Word.parse(w.to_text(), 3) == w


def random_word(rng, rank, length):
    letters = []
    for _ in range(length):
        x = rng.choice([i for i in range(-rank, rank + 1) if i != 0])
        letters.append(x)
    return Word(letters, rank)


def test_free_reduce_raw_letters():
    assert Word([1, 2, -2, -1, 3], 3) == Word((3,), 3)
    assert Word([], 2).is_identity()
    with pytest.raises(WordError):
        Word([4], 3)


def test_reduction_confluence_under_insertion():
    # inserting a cancelling pair anywhere must not change the reduced word
    rng = random.Random(6)
    for _ in range(100):
        w = random_word(rng, 3, rng.randrange(0, 10))
        letters = list(w.letters)
        pos = rng.randrange(0, len(letters) + 1)
        x = rng.choice([1, 2, 3, -1, -2, -3])
        padded = letters[:pos] + [x, -x] + letters[pos:]
        assert Word(padded, 3) == w
        # reduction via repeated single-letter multiplication agrees too
        acc = Word.identity(3)
        for y in padded:
            acc = Word(acc.letters + (y,), 3)
        assert acc == w


def test_endo_apply_substitution_example():
    phi = FreeEndo.parse(["ab", "ba"], 2)
    assert phi.apply(Word.parse("ab", 2)) == Word.parse("abba", 2)
    ident = FreeEndo.parse(["a", "b"], 2)
    for text in ["a", "ab", "aBa"]:
        w = Word.parse(text, 2)
        assert ident.apply(w) == w


def test_endo_apply_is_homomorphism():
    rng = random.Random(8)
    phi = FreeEndo.parse(["ab", "bA"], 2)
    for _ in range(50):
        u = random_word(rng, 2, rng.randrange(0, 6))
        v = random_word(rng, 2, rng.randrange(0, 6))
        product = Word(phi.apply(u).letters + phi.apply(v).letters, 2)
        assert phi.apply(Word(u.letters + v.letters, 2)) == product


def test_injectivity_implies_nontrivial_iterates():
    for images in [["ab", "ba"], ["ab", "b"], ["b", "a"]]:
        phi = FreeEndo.parse(images, 2)
        assert endo_is_injective(phi)
        for text in ["a", "b", "ab", "aB", "abA", "bab"]:
            w = Word.parse(text, 2)
            for n in range(1, 9):
                assert not phi.apply_power(w, n).is_identity()


def test_word_evaluate_in_symmetric_group():
    # permutations of {0,1,2} as tuples; mul = compose left then right
    def mul(f, g):
        return tuple(g[f[i]] for i in range(3))

    def inv(f):
        out = [0] * 3
        for i, fi in enumerate(f):
            out[fi] = i
        return tuple(out)

    ident = (0, 1, 2)
    h1 = (1, 0, 2)
    h2 = (0, 2, 1)
    assert word_evaluate(Word.identity(2), [h1, h2], mul, inv, ident) == ident
    assert word_evaluate(Word.parse("a", 2), [h1, h2], mul, inv, ident) == h1
    # hand multiplication: h1 then h2 then h1
    byhand = mul(mul(h1, h2), h1)
    assert word_evaluate(Word.parse("aba", 2), [h1, h2], mul, inv, ident) == byhand


def test_fold_whole_group():
    graph = stallings_fold([Word.parse("a", 2), Word.parse("b", 2)])
    assert subgroup_rank(graph) == 2


def test_fold_square_and_loop():
    # hand folding: a 2-cycle for a^2 wedge a loop for b -> V=2, E=3
    graph = stallings_fold([Word.parse("aa", 2), Word.parse("b", 2)])
    assert len(graph.vertices) == 2 and len(graph.edges) == 3
    assert subgroup_rank(graph) == 2


def test_fold_ab_ba():
    graph = stallings_fold([Word.parse("ab", 2), Word.parse("ba", 2)])
    assert subgroup_rank(graph) == 2


def test_fold_idempotent():
    for words in [["ab", "ba"], ["aa", "b"], ["abA", "bb"]]:
        graph = stallings_fold([Word.parse(t, 2) for t in words])
        # folded means no further fold applies: no (vertex, label) repeats
        # among the out-edges or among the in-edges
        out_keys = [(u, lab) for (u, lab, _) in graph.edges]
        in_keys = [(v, lab) for (_, lab, v) in graph.edges]
        assert len(set(out_keys)) == len(out_keys)
        assert len(set(in_keys)) == len(in_keys)


@st.composite
def word_lists(draw):
    rank = draw(st.integers(1, 5))
    letter = st.integers(-rank, rank).filter(bool)
    return rank, draw(st.lists(st.lists(letter, max_size=25), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(case=word_lists())
@example(case=(1, [[1] * 5, [1] * 6]))              # a^5, a^6 fold to one loop
@example(case=(2, [[1, 2], [1, 1, 2]]))             # ab, aab
@example(case=(2, [[1] * 7 + [2], [1] * 4 + [2] + [-1] * 3, [2, 2]]))
@example(case=(3, [[1, 2, 3] * 4, [1, 2, 3] * 3, [-3, -2, -1] * 5]))
@example(case=(2, [[], [2, 1, -2]]))                # an identity word, and a conjugate
def test_fold_matches_the_naive_fold(case):
    rank, letter_lists = case
    words = [Word(letters, rank) for letters in letter_lists]
    graph = stallings_fold(words, rank)
    assert graph == naive_fold(words, rank)
    degree = {}
    for (u, _, v) in graph.edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    assert all(d != 1 for v, d in degree.items() if v != 0)  # no leaf left to trim


INJECTIVITY_SUITE = [
    # (rank, images, expected rank of image subgroup, injective?)
    (2, ["a", "b"], 2, True),
    (2, ["ab", "ba"], 2, True),
    (1, ["aa"], 1, True),
    (2, ["b", "a"], 2, True),
    (2, ["ab", "b"], 2, True),
    (2, ["aa", "bb"], 2, True),
    (2, ["a", "a"], 1, False),
    (2, ["ab", "ab"], 1, False),
    (2, ["", "b"], 1, False),
    (1, [""], 0, False),
    (3, ["ab", "ba", "ab"], 2, False),
    (2, ["aa", "aaaa"], 1, False),
]


@pytest.mark.parametrize("rank,images,subrank,injective", INJECTIVITY_SUITE)
def test_injectivity_suite(rank, images, subrank, injective):
    phi = FreeEndo.parse(images, rank)
    graph = stallings_fold(phi.images, rank)
    assert subgroup_rank(graph) == subrank
    assert endo_is_injective(phi) == injective


def test_sanov_basics():
    assert sanov_embed(Word.identity(2)) == IntMatrix2.identity()
    assert sanov_embed(Word.parse("a", 2)) == IntMatrix2(1, 2, 0, 1)
    assert sanov_embed(Word.parse("b", 2)) == IntMatrix2(1, 0, 2, 1)
    assert sanov_embed(Word.parse("aA", 2)) == IntMatrix2.identity()


def test_sanov_rank_three_generators_are_conjugates():
    # x_i -> s1^i s2 s1^(-i), with s1^i = [[1, 2i], [0, 1]], multiplied out over Z
    s2 = IntMatrix2(1, 0, 2, 1)
    for i, letter in enumerate("abcd", start=1):
        conj = IntMatrix2(1, 2 * i, 0, 1) * s2 * IntMatrix2(1, -2 * i, 0, 1)
        assert sanov_embed(Word.parse(letter, 4)) == conj


def test_sanov_determinant_one():
    rng = random.Random(10)
    for _ in range(50):
        w = random_word(rng, 2, rng.randrange(0, 10))
        assert sanov_embed(w).det() == 1


def test_sanov_homomorphism():
    rng = random.Random(12)
    for _ in range(50):
        u = random_word(rng, 2, rng.randrange(0, 8))
        v = random_word(rng, 2, rng.randrange(0, 8))
        assert sanov_embed(Word(u.letters + v.letters, 2)) == sanov_embed(u) * sanov_embed(v)


def test_sanov_faithful_to_length_eight():
    # exhaustive: no nontrivial reduced word of length <= 8 maps to +-Id
    ident = IntMatrix2.identity()
    frontier = [(Word.identity(2), ident)]
    gens = {1: IntMatrix2(1, 2, 0, 1), -1: IntMatrix2(1, -2, 0, 1),
            2: IntMatrix2(1, 0, 2, 1), -2: IntMatrix2(1, 0, -2, 1)}
    count = 0
    for _ in range(8):
        nxt = []
        for w, mat in frontier:
            for x, g in gens.items():
                if w.letters and w.letters[-1] == -x:
                    continue
                w2 = Word(w.letters + (x,), 2)
                m2 = mat * g
                assert not (m2 == ident or m2 == IntMatrix2(-1, 0, 0, -1))
                nxt.append((w2, m2))
                count += 1
        frontier = nxt
    assert count == sum(4 * 3 ** (l - 1) for l in range(1, 9))


def test_sanov_rank_three_free():
    # the k>2 generators generate a rank-3 subgroup (checked by folding words
    # in F2 letters) and the embedding stays a homomorphism
    rng = random.Random(14)
    for _ in range(30):
        u = random_word(rng, 3, rng.randrange(0, 6))
        v = random_word(rng, 3, rng.randrange(0, 6))
        assert sanov_embed(Word(u.letters + v.letters, 3)) == sanov_embed(u) * sanov_embed(v)
    for text in ["a", "b", "c", "abc", "aBc", "cab"]:
        assert not sanov_embed(Word.parse(text, 3)).is_scalar()


PRIMES = (2, 3, 5, 7, 11)


def test_nonscalar_sanity_check():
    phi = FreeEndo.parse(["ab", "ba"], 2)
    ok, mat = nonscalar_sanity_check(phi, Word.parse("a", 2), 8, 5)
    assert ok and not mat.is_scalar()
    assert all(0 <= x < 5 for x in (mat.a, mat.b, mat.c, mat.d))
    ok, mat = nonscalar_sanity_check(phi, Word.identity(2), 8, 5)
    assert not ok and mat == IntMatrix2.identity()
    # every Sanov generator is the identity mod 2
    ok, mat = nonscalar_sanity_check(phi, Word.parse("a", 2), 8, 2)
    assert not ok and mat == IntMatrix2.identity()


def test_nonscalar_for_every_injective_endo_and_short_word():
    # mod p the matrix is scalar exactly at the primes dividing gcd(b, c, a - d)
    # of the integer matrix, which is non-scalar for injective phi and w != 1
    letters = ["a", "b", "A", "B"]
    words = letters + [x + y for x in letters for y in letters
                       if not Word.parse(x + y, 2).is_identity()]
    for images in (["ab", "ba"], ["ab", "b"], ["aa", "bb"], ["b", "a"]):
        phi = FreeEndo.parse(images, 2)
        assert endo_is_injective(phi)
        for text in words:
            w = Word.parse(text, 2)
            whole = sanov_embed(phi.apply_power(w, 8))  # phi^8(w) written out
            g = math.gcd(whole.b, whole.c, whole.a - whole.d)
            assert g != 0, f"scalar image for {images} at {text}"
            for p in PRIMES + (13, 17, 19, 23):
                ok, _ = nonscalar_sanity_check(phi, w, 8, p)
                assert ok == (g % p != 0), f"{images} at {text} mod {p}"


def test_nonscalar_sanity_check_budget():
    # phi^40(a) has 2^40 letters; mod p no word is built.
    # mod 3 both generators are central from n = 3 on, so the value stays scalar
    phi = FreeEndo.parse(["ab", "ba"], 2)
    ok, mat = nonscalar_sanity_check(phi, Word.parse("a", 2), 40, 5)
    assert ok and not mat.is_scalar()
    assert nonscalar_sanity_check(phi, Word.parse("a", 2), 3, 3) == (False, IntMatrix2.identity())
    assert nonscalar_sanity_check(phi, Word.parse("a", 2), 40, 3) == (False, IntMatrix2.identity())


def test_nonscalar_sanity_check_composite_modulus():
    # reduction commutes with the ring operations: the matrix mod a product of
    # primes reduces to the matrix mod each of them
    phi = FreeEndo.parse(["abA", "bb", "Ca"], 3)
    w = Word.parse("aBc", 3)
    m = 3 * 5 * 7 * 11 * 13
    _, mat = nonscalar_sanity_check(phi, w, 6, m)
    for q in (3, 5, 7, 11, 13):
        _, expected = nonscalar_sanity_check(phi, w, 6, q)
        assert IntMatrix2(mat.a % q, mat.b % q, mat.c % q, mat.d % q) == expected


ORACLE_ENDOS = [
    (["aa"], ["a", "A", "aaa"]),
    (["A"], ["a", "aa"]),
    (["ab", "ba"], ["a", "aB", "bAb"]),
    (["aB", "bA"], ["a", "ab"]),
    (["a", "a"], ["a", "aB"]),                 # not injective
    (["ab", "bc", "ca"], ["a", "abC"]),
    (["abc", "bca", "cab"], ["aB", "c"]),
    (["aC", "b", "Ab"], ["cB"]),
]


@pytest.mark.parametrize("images,words", ORACLE_ENDOS)
def test_nonscalar_sanity_check_matches_integer_oracle(images, words):
    # the integer oracle writes phi^n(w) out and embeds it over Z
    phi = FreeEndo.parse(images, len(images))
    for text in words:
        w = Word.parse(text, phi.rank)
        for n in range(9):
            whole = sanov_embed(phi.apply_power(w, n))
            for p in PRIMES:
                expected = IntMatrix2(whole.a % p, whole.b % p, whole.c % p, whole.d % p)
                ok, mat = nonscalar_sanity_check(phi, w, n, p)
                assert mat == expected, f"{images} at {text}, n={n}, p={p}"
                assert ok == (not expected.is_scalar())


def test_endo_file_roundtrip():
    phi = FreeEndo.parse(["ab", "ba"], 2)
    assert FreeEndo.from_dict({"rank": 2, "images": ["ab", "ba"]}) == phi
    with pytest.raises(WordError):
        FreeEndo.from_dict({"images": ["a"]})


MALFORMED_ENDOS = [
    {"rank": 2, "images": "ab"},          # a string is not read as a list of letters
    {"rank": True, "images": ["a"]},      # bool is not an integer rank
    {"rank": 2.7, "images": ["ab", "ba"]},
    {"rank": "2", "images": ["ab", "ba"]},
    {"rank": 2, "images": ["ab", 2]},     # non-string image entry
    {"rank": 1, "images": {"a": "ab"}},   # a mapping is not read as its keys
    ["ab", "ba"],                         # not an object at all
]


@pytest.mark.parametrize("data", MALFORMED_ENDOS)
def test_endo_from_dict_rejects_malformed(data):
    with pytest.raises(WordError):
        FreeEndo.from_dict(data)


# -- untrusted text ------------------------------------------------------------

WORD_TEXT = st.text(alphabet="abcxAX019 ") | st.text()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(text=WORD_TEXT, rank=st.integers(-2, 30))
@example(text="x" + "1" * 5000, rank=2)
@example(text="", rank=-1)
def test_word_parse_returns_word_or_word_error(text, rank):
    try:
        w = Word.parse(text, rank)
    except WordError:
        return
    assert w.rank == rank >= 1


@settings(max_examples=150, deadline=None)
@given(text=WORD_TEXT, rank=st.integers(1, 30))
@example(text="\u212a", rank=11)  # KELVIN SIGN, which str.lower() maps to "k"
def test_word_parse_accepts_only_ascii_letter_form(text, rank):
    try:
        Word.parse(text, rank)
    except WordError:
        return
    assert text.strip().isascii()


@settings(max_examples=150, deadline=None)
@given(data=st.fixed_dictionaries({"rank": st.integers(-2, 4) | JSON_VALUES,
                                   "images": st.lists(WORD_TEXT, max_size=4) | JSON_VALUES})
       | JSON_VALUES)
@example(data={"rank": 2, "images": ["x" + "1" * 5000, "a"]})
def test_endo_from_dict_returns_endo_or_word_error(data):
    try:
        phi = FreeEndo.from_dict(data)
    except WordError:
        return
    assert FreeEndo.from_dict({"rank": phi.rank,
                               "images": [w.to_text() for w in phi.images]}) == phi
