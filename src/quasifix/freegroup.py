"""Words in a free group, endomorphisms, folding, and the Sanov embedding.

Words are stored as freely reduced sequences of signed generator indices
(+i for the i-th generator, -i for its inverse).  Injectivity of an
endomorphism is decided through Stallings folding: the images generate a
free subgroup whose rank is read off the core graph left by folding, and
k elements generating a rank-k subgroup of a free group are a free basis.
The fold is one pass of union-find over a queue of label clashes (Touikan,
IJAC 16 (2006)), and folding reduced words leaves no hanging tree to trim.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_INDEXED_RE = re.compile(r"^(?:[xX][0-9]+)+$")
_INDEXED_TOKEN = re.compile(r"[xX][0-9]+")


class WordError(ValueError):
    """Bad word syntax, rank out of range, or rank mismatch."""


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class Word:
    """Freely reduced word in the free group of the given rank."""

    __slots__ = ("rank", "letters")

    def __init__(self, letters: Iterable[int], rank: int):
        if rank < 1:
            raise WordError(f"free-group rank must be >= 1, got {rank}")
        reduced = _reduce(letters)
        for x in reduced:
            if x == 0 or abs(x) > rank:
                raise WordError(f"letter {x} out of range for rank {rank}")
        self.rank = rank
        self.letters = reduced

    @classmethod
    def identity(cls, rank: int) -> "Word":
        return cls((), rank)

    @classmethod
    def parse(cls, text: str, rank: int) -> "Word":
        """Parse `abA` letter form or `x1x2X1` indexed form; empty = identity."""
        text = text.strip()
        if not text:
            return cls.identity(rank)
        letters: list[int] = []
        if _INDEXED_RE.match(text):
            for token in _INDEXED_TOKEN.findall(text):
                try:
                    idx = int(token[1:])
                except ValueError as exc:  # past the interpreter's integer digit limit
                    raise WordError(f"generator index of {len(token) - 1} digits "
                                    "is too long") from exc
                if not 1 <= idx <= rank:
                    raise WordError(f"generator index {idx} is out of range 1..{rank}")
                letters.append(idx if token[0] == "x" else -idx)
        else:
            for ch in text:
                lower = ch.lower()
                # str.lower maps some non-ASCII letters (KELVIN SIGN) onto ASCII ones
                if not ch.isascii() or lower not in _LETTERS:
                    raise WordError(f"unknown generator character {ch!r}")
                idx = _LETTERS.index(lower) + 1
                if idx > rank:
                    raise WordError(f"generator {ch!r} exceeds rank {rank}")
                letters.append(idx if ch.islower() else -idx)
        return cls(letters, rank)

    def to_text(self) -> str:
        if self.rank <= 26:
            out = []
            for x in self.letters:
                ch = _LETTERS[abs(x) - 1]
                out.append(ch if x > 0 else ch.upper())
            return "".join(out)
        return "".join((f"x{x}" if x > 0 else f"X{-x}") for x in self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.rank == other.rank and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.rank, self.letters))

    def __repr__(self) -> str:
        return f"Word({self.to_text()!r}, rank={self.rank})"


class FreeEndo:
    """Endomorphism of the free group of rank k, given by generator images."""

    __slots__ = ("rank", "images")

    def __init__(self, images: Sequence[Word], rank: int | None = None):
        images = tuple(images)
        if not images:
            raise WordError("an endomorphism needs at least one image word")
        rank = len(images) if rank is None else rank
        if rank != len(images):
            raise WordError(f"{len(images)} images given for rank {rank}")
        for w in images:
            if w.rank != rank:
                raise WordError("image word rank does not match endomorphism rank")
        self.rank = rank
        self.images = images

    @classmethod
    def parse(cls, image_texts: Sequence[str], rank: int) -> "FreeEndo":
        return cls([Word.parse(t, rank) for t in image_texts], rank)

    @classmethod
    def from_dict(cls, data: dict) -> "FreeEndo":
        """Read {"rank": k, "images": [...]}; anything else is a WordError."""
        if not isinstance(data, dict) or "rank" not in data or "images" not in data:
            raise WordError("endomorphism object needs 'rank' and 'images'")
        rank, images = data["rank"], data["images"]
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise WordError(f"endomorphism rank must be an integer, got {rank!r}")
        if not isinstance(images, list) or not all(isinstance(t, str) for t in images):
            raise WordError("endomorphism images must be a list of strings")
        return cls.parse(images, rank)

    def apply(self, w: Word) -> Word:
        if w.rank != self.rank:
            raise WordError("word rank does not match endomorphism rank")
        out: list[int] = []
        for x in w.letters:
            image = self.images[abs(x) - 1].letters
            out.extend(image if x > 0 else tuple(-y for y in reversed(image)))
        return Word(out, self.rank)

    def apply_power(self, w: Word, n: int) -> Word:
        """phi^n(w) by repeated application (avoids composing large images)."""
        for _ in range(n):
            w = self.apply(w)
        return w

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FreeEndo) and self.images == other.images

    def __repr__(self) -> str:
        return f"FreeEndo({[w.to_text() for w in self.images]})"


T = TypeVar("T")


def word_evaluate(w: Word, elements: Sequence[T], mul: Callable[[T, T], T],
                  inv: Callable[[T], T], identity: T) -> T:
    """Value of w(h_1, ..., h_k) in any group given its operation suite."""
    if len(elements) != w.rank:
        raise WordError(f"{len(elements)} elements supplied for rank {w.rank}")
    acc = identity
    for x in w.letters:
        h = elements[abs(x) - 1]
        acc = mul(acc, h if x > 0 else inv(h))
    return acc


# ---------------------------------------------------------------------------
# Stallings folding

class StallingsGraph(NamedTuple):
    """Folded core subgroup graph; edges are (source, label, target)."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int, int]]
    basepoint: int


def stallings_fold(words: Sequence[Word], rank: int | None = None) -> StallingsGraph:
    """Folded core graph of the subgroup generated by the given words, in one pass.

    Each word is a loop at the basepoint 0, and each vertex maps a signed label
    (+x along an x-edge, -x against it) to a neighbour.  A label met twice at a
    vertex queues its two targets; merging them moves the larger id's map into
    the smaller's, so each class of vertices keeps its least id.
    """
    words = list(words)
    if not words:
        raise WordError("folding needs at least one word")
    rank = words[0].rank if rank is None else rank
    for w in words:
        if w.rank != rank:
            raise WordError("words have different ranks")
    nbrs: list[dict[int, int]] = [{}]
    parent = [0]
    clashes: list[tuple[int, int]] = []

    def link(u: int, lab: int, v: int) -> None:
        w = nbrs[u].setdefault(lab, v)
        if w != v:
            clashes.append((w, v))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for w in words:
        prev = 0
        for pos, x in enumerate(w.letters):
            nxt = 0 if pos == len(w.letters) - 1 else len(nbrs)
            if nxt:
                nbrs.append({})
                parent.append(nxt)
            link(prev, x, nxt)
            link(nxt, -x, prev)
            prev = nxt
    while clashes:
        keep, drop = sorted(map(find, clashes.pop()))
        if keep != drop:
            parent[drop] = keep
            for lab, v in nbrs[drop].items():
                link(keep, lab, v)
            nbrs[drop] = {}
    # no hanging trees to trim: the vertex after letter x of a reduced word also
    # carries the next letter y != -x, merges only join label sets, and a vertex
    # with two labels has degree 2 or more, so only the basepoint can be a leaf
    edges = {(u, x, find(v)) for u in range(len(nbrs)) if parent[u] == u
             for x, v in nbrs[u].items() if x > 0}
    vertices = {0} | {u for (u, _, v) in edges} | {v for (u, _, v) in edges}
    return StallingsGraph(frozenset(vertices), frozenset(edges), 0)


def subgroup_rank(graph: StallingsGraph) -> int:
    return len(graph.edges) - len(graph.vertices) + 1


def endo_is_injective(phi: FreeEndo) -> bool:
    """phi is injective iff its images generate a subgroup of full rank."""
    return subgroup_rank(stallings_fold(phi.images, phi.rank)) == phi.rank


# ---------------------------------------------------------------------------
# Sanov embedding into SL2(Z)

class IntMatrix2(NamedTuple):
    """2x2 integer matrix; arbitrary precision entries."""

    a: int
    b: int
    c: int
    d: int

    @classmethod
    def identity(cls) -> "IntMatrix2":
        return cls(1, 0, 0, 1)

    def __mul__(self, o: "IntMatrix2") -> "IntMatrix2":
        return IntMatrix2(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                          self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "IntMatrix2":
        if self.det() != 1:
            raise ValueError("integer inverse requires determinant 1")
        return IntMatrix2(self.d, -self.b, -self.c, self.a)

    def is_scalar(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d


def _sanov_generator(index: int, rank: int) -> tuple[int, int, int, int]:
    """Entries of the image of x_index: s1 = [[1, 2], [0, 1]] and s2 = [[1, 0], [2, 1]]."""
    if rank <= 2:
        return (1, 2, 0, 1) if index == 1 else (1, 0, 2, 1)
    # free subgroup of F2: x_i -> s1^i s2 s1^(-i), multiplied out
    return (1 + 4 * index, -8 * index * index, 2, 1 - 4 * index)


def sanov_embed(w: Word) -> IntMatrix2:
    """Image of w under the faithful representation F_k -> SL2(Z)."""
    gens = [IntMatrix2(*_sanov_generator(i, w.rank)) for i in range(1, w.rank + 1)]
    return word_evaluate(w, gens, lambda x, y: x * y, lambda x: x.inverse(),
                         IntMatrix2.identity())


def nonscalar_sanity_check(phi: FreeEndo, w: Word, n: int, p: int) -> tuple[bool, IntMatrix2]:
    """Whether the Sanov matrix of phi^n(w) is non-scalar mod p, and that matrix mod p.

    The generator matrices mod p are substituted into the image words n times,
    so phi^n(w) is never written out; det = 1 makes the adjugate the inverse.
    The matrices are int 4-tuples.  Any modulus p >= 2 works: the result mod a
    divisor of p is the matrix mod that divisor.
    """
    def evaluate(letters: tuple[int, ...], mats: list[tuple]) -> tuple:
        a, b, c, d = 1, 0, 0, 1
        for x in letters:
            if x > 0:
                e, f, g, h = mats[x - 1]
            else:
                h, f, g, e = mats[-x - 1]
                f, g = -f, -g
            a, b, c, d = ((a * e + b * g) % p, (a * f + b * h) % p,
                          (c * e + d * g) % p, (c * f + d * h) % p)
        return a, b, c, d

    mats = [tuple(x % p for x in _sanov_generator(i, phi.rank))
            for i in range(1, phi.rank + 1)]
    for _ in range(n):
        mats = [evaluate(image.letters, mats) for image in phi.images]
    mat = IntMatrix2(*evaluate(w.letters, mats))
    return (not mat.is_scalar(), mat)
