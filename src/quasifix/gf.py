"""Exact arithmetic in finite fields F_{p^m}.

A field is described by a prime p, an extension degree m and a monic
irreducible modulus over F_p chosen deterministically, so two runs (or two
processes) always agree on the representation.  Elements are dense
coefficient vectors in the polynomial basis 1, t, ..., t^{m-1}, always fully
reduced.  Everything is exact integer arithmetic; fields and elements are
immutable and safe to share.

One multiply (`FqField._mul`) and one power (`FqField._pow`) serve
Ben-Or's irreducibility test on each candidate modulus, the log-table build
and the `FqElement` operators.  The test refuses a candidate f at its first
d <= m/2 with x^(p^d) - x and f not coprime, read off one resultant
(`_norm`), which also gives the norm that the search for a primitive
element uses.  Inversion negates a log on the field's log tables.  No
command-line path runs the element operators: polynomial evaluation,
enumeration and the matrices of `matrep` compute on the log tables, and an
element there is only the library's witness value (coefficients, index,
equality); the command line writes witnesses from element indices.

An element's index is the base-p value of its coefficients (`from_int`,
`to_int`).  `FqField.log_tables` gives exp/log/Zech tables over these
indices for one primitive element, so products, sums and Frobenius powers
become integer arithmetic on logarithms.  They take three `array`s of q
ints, 6 bytes per element when q <= 2^16 (and p < 2^15) and 12 above; a
field builds them on first use, and none past DEFAULT_ORDER_CAP.  The
build reads exp off one m-sequence that it extends by big-integer
operations on lane-packed ints, so only the log scatter and the Zech
gather take a Python step per element: under a second for F_{2^20}.
Quasi-fixed point enumeration runs on them, and so do the 2x2 matrices of
`matrep`, which store their entries as logarithms.
`FqField.frobenius_tables` sorts those logs into Frobenius orbits (about 8
bytes per element) for enumeration.
`field_create` keeps the fields it returns, so one process finds each
modulus and builds each field's tables once, for every search,
verification and enumeration it runs.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, zip_longest
from operator import itemgetter, mul
from typing import Sequence

DEFAULT_ORDER_CAP = 2**20  # the one field-order cap: field_create builds no larger field


class FieldError(ValueError):
    """Invalid field construction or mixed-field arithmetic."""


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Whether n < 3.18 * 10^23 is prime (FieldError above): trial division by
    the primes up to 37, then Miller-Rabin to those bases, which no composite
    below 318665857834031151167461 passes (Sorenson-Webster, Math. Comp. 2017).
    """
    if n >= 318665857834031151167461:
        raise FieldError(f"primality of {n} is not decided above 3.18 * 10^23")
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:  # n < 2, or no prime factor up to 37 and so none up to sqrt(n)
        return n > 1
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d = (n - 1) >> r
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        # a witnesses that n is composite: a^d != 1 and a^(d 2^i) != -1 for i < r
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(r)):
            return False
    return True


def power_within(p: int, e: int, cap: int) -> bool:
    """Whether p**e <= cap, for any int p and e >= 0, building p**e only when
    it has at most twice the bits of cap.  For |p| >= 2 of b bits, |p^e| >=
    2^(e(b - 1)); past |cap|, p^e <= cap exactly when p^e is negative."""
    if abs(p) >= 2 and e * (abs(p).bit_length() - 1) > abs(cap).bit_length():
        return p < 0 and e % 2 == 1
    return p**e <= cap


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 in increasing order, by trial division."""
    out = []
    for f in chain((2,), range(3, n + 1, 2)):
        if f * f > n:
            break
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
    return out + [n] if n > 1 else out


def _digits(n: int, p: int, m: int) -> tuple[int, ...]:
    """The m lowest base-p digits of n, least significant first."""
    out = []
    for _ in range(m):
        n, d = divmod(n, p)
        out.append(d)
    return tuple(out)


# ---------------------------------------------------------------------------
# univariate helpers over F_p; polynomials are tuples, constant term first,
# no trailing zeros (the zero polynomial is the empty tuple)

def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _usub(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    return _trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _udivmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], p - 2, p)
    for shift in reversed(range(len(q))):
        q[shift] = coef = r[shift + len(b) - 1] * inv_lead % p
        if coef:
            for i, bi in enumerate(b):
                if bi:
                    r[shift + i] = (r[shift + i] - coef * bi) % p
    return _trim(q), _trim(r[:len(b) - 1])


def _norm(c: Sequence[int], mod: tuple[int, ...], p: int) -> int:
    """N(c) = c^((p^m - 1)/(p - 1)) in F_p[x]/(mod): the resultant Res(mod, c) for monic mod.

    It is 0 just when c and mod have a common factor, c = 0 included.
    """
    a, b, out = mod, _trim(list(c)), 1
    if not b:
        return 0
    while len(b) > 1:
        r = _udivmod(a, b, p)[1]
        if not r:
            return 0
        # Res(a, b) = (-1)^(deg a * deg b) * lead(b)^(deg a - deg r) * Res(b, r)
        out = out * (-1) ** ((len(a) - 1) * (len(b) - 1)) * pow(b[-1], len(a) - len(r), p)
        a, b = b, r
    return out * pow(b[0], len(a) - 1, p) % p


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test: f of degree m is irreducible iff x^(p^d) - x is coprime
    to f for every d <= m/2, since a reducible f has an irreducible factor of
    some degree d <= m/2, and that factor divides x^(p^d) - x.  It stops at
    the first such d, which on most reducible f is small (Gao and Panario,
    Tests and constructions of irreducible polynomials over finite fields,
    FoCM 1997)."""
    m = len(mod) - 1
    ring = FqField(p, m, mod)  # F_p[x]/(f), a field only once the test passes
    x = (0, 1)
    h = x
    for _ in range(m // 2):
        h = ring._pow(h, p)  # x^(p^d)
        if not _norm(_usub(h, x, p), mod, p):
            return False
    return True


def _min_irreducible(p: int, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m, low coefficients counted in base p."""
    for code in range(p**m):
        cand = _digits(code, p, m) + (1,)
        # x divides a candidate without a constant term, the modulus x of F_p aside
        if (cand[0] or m == 1) and _is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible polynomial of degree {m} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------

class FqField:
    """Descriptor of F_{p^m} with a fixed monic irreducible modulus."""

    __slots__ = ("p", "m", "modulus", "order", "_fold", "_log_tables", "_frobenius_tables")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.modulus = modulus
        self.order = p**m
        # x^m = sum of c * x^i over these (i, c), modulo the modulus
        self._fold = tuple((i, -c % p) for i, c in enumerate(modulus[:-1]) if c)
        self._log_tables: tuple[array, array, array] | None = None
        self._frobenius_tables: tuple[array, dict[int, array]] | None = None

    def __eq__(self, other: object) -> bool:
        # field_create hands out one object per (p, m); the full comparison
        # is for the unshared rings of the irreducibility test
        if self is other:
            return True
        return (isinstance(other, FqField) and self.p == other.p
                and self.m == other.m and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FqField(p={self.p}, m={self.m})"

    # -- element construction

    def element(self, coeffs: Sequence[int]) -> "FqElement":
        if len(coeffs) != self.m:
            raise FieldError(f"expected {self.m} coefficients, got {len(coeffs)}")
        return FqElement(self, tuple(c % self.p for c in coeffs))

    def from_int(self, n: int) -> "FqElement":
        """Element with index n in enumeration order (base-p digits of n)."""
        if not 0 <= n < self.order:
            raise FieldError(f"element index {n} out of range for order {self.order}")
        return FqElement(self, self._coeffs(n))

    def scalar(self, c: int) -> "FqElement":
        """Image of the prime-field residue c under F_p -> F_{p^m}."""
        return FqElement(self, (c % self.p,) + (0,) * (self.m - 1))

    def zero(self) -> "FqElement":
        return FqElement(self, (0,) * self.m)

    def one(self) -> "FqElement":
        return self.scalar(1)

    # -- raw coefficient-vector arithmetic

    def _coeffs(self, n: int) -> tuple[int, ...]:
        return _digits(n, self.p, self.m)

    def _index(self, coeffs: Sequence[int]) -> int:
        n = 0
        for c in reversed(coeffs):
            n = n * self.p + c
        return n

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, m = self.p, self.m
        if m == 1:
            return ((a[0] * b[0]) % p,)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        # top degree first, so each fold lands below the degrees still to fold
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            if c:
                for i, fi in self._fold:
                    prod[k - m + i] += c * fi
        return tuple([c % p for c in prod[:m]])

    def _pow(self, a: tuple[int, ...], e: int) -> tuple[int, ...]:
        """a^e for e >= 0, by left-to-right square-and-multiply."""
        if not e:
            return self._coeffs(1)
        out = a
        for bit in bin(e)[3:]:
            out = self._mul(out, out)
            if bit == "1":
                out = self._mul(a, out)
        return out

    # -- logarithm tables

    def log_tables(self) -> tuple[array, array, array]:
        """(exp, log, zech) for g, the first primitive element in index order.

        With n = q - 1: exp[k] is the index of g^k for k < n, log is its
        inverse on the nonzero indices, and zech[k] = log(1 + g^k).  The
        value n is the logarithm of 0: log[0] = n, exp[n] = 0, zech[k] = n
        when 1 + g^k = 0, and zech[n] = log(1) = 0.  So a product is a sum
        of logs mod n, a sum is a + zech[(b - a) % n] mod n, and the
        Frobenius a -> a^(p^e) is log(a) * p^e mod n.  Built on first call.
        """
        return self._log_tables or self._build("_log_tables", _build_log_tables)

    def frobenius_tables(self) -> tuple[array, dict[int, array]]:
        """(orbit, by_degree): the Frobenius orbits on the logs of `log_tables`.

        For a log x < n = q - 1, orbit[x] is the least log in the Frobenius
        orbit {x * p^j mod n} of x, so g^v is a Frobenius power of g^x iff
        orbit[v] == orbit[x].  The log n of 0 has orbit -1, so it matches
        only itself.  by_degree[d] holds the logs whose least field is
        F_{p^d}, d | m (n in by_degree[1]): first the least log of each
        orbit, then p times those, and so on, so its first
        k * len(by_degree[d]) // d entries are the x * p^j with j < k of the
        orbits' least logs x.  About 8 bytes per element; built on first call.
        """
        return self._frobenius_tables or self._build("_frobenius_tables", _build_frobenius_tables)

    def _build(self, slot: str, build) -> tuple:
        """The tables `build` makes, kept in slot, past the one check of
        DEFAULT_ORDER_CAP that every table user meets."""
        if self.order > DEFAULT_ORDER_CAP:  # a field built directly can pass it
            raise FieldError(f"field order {self.p}^{self.m} exceeds cap {DEFAULT_ORDER_CAP}")
        setattr(self, slot, build(self))
        return getattr(self, slot)


class FqElement:
    """Element of F_{p^m}, stored as reduced polynomial-basis coordinates."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other: "FqElement") -> None:
        if self.field != other.field:
            raise FieldError("operands belong to different fields")

    def __add__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        p = self.field.p
        return FqElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        p = self.field.p
        return FqElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        return FqElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    def inv(self) -> "FqElement":
        """1/a, the negated log on the field's log tables, built on first use."""
        if not any(self.coeffs):
            raise ZeroDivisionError("inversion of zero field element")
        field = self.field
        exp, log, _ = field.log_tables()
        return field.from_int(exp[-log[self.to_int()] % (field.order - 1)])

    def __pow__(self, e: int) -> "FqElement":
        if e < 0:
            return self.inv() ** (-e)
        if any(self.coeffs):  # a^(q-1) = 1; 0^e keeps e, so 0^0 = 1
            e %= self.field.order - 1
        return FqElement(self.field, self.field._pow(self.coeffs, e))

    def frobenius(self, e: int = 1) -> "FqElement":
        """a -> a^(p^e), Frobenius relative to the prime field."""
        if e < 0:
            raise FieldError("Frobenius power must be nonnegative")
        return self ** (self.field.p ** e)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def to_int(self) -> int:
        """Index in enumeration order (base-p value of the coefficients)."""
        return self.field._index(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FqElement) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.coeffs, self.field.p, self.field.m))

    def __repr__(self) -> str:
        if self.field.m == 1:
            return f"{self.coeffs[0]}"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}t" if i == 1 else f"{head}t^{i}")
        return " + ".join(parts) if parts else "0"


# fields handed out by field_create, oldest first; their orders sum to at most
# DEFAULT_ORDER_CAP, so their log and Frobenius tables take at most
# 20 bytes * DEFAULT_ORDER_CAP (14 per element when q <= 2^16 and p < 2^15)
_FIELDS: dict[tuple[int, int], FqField] = {}


def field_create(p: int, m: int) -> FqField:
    """F_{p^m} with the first irreducible modulus in deterministic order.

    The order p^m may be at most DEFAULT_ORDER_CAP, the one field-order cap
    of enumeration, search and verification.  The field is shared: calls
    with the same (p, m) in one process return the same object, with its
    modulus and log tables built once.  That is safe because everything a
    field caches is a deterministic function of (p, m).  The checks still
    run on every call, the cap before primality.  Kept fields are dropped
    oldest first once their orders would sum past DEFAULT_ORDER_CAP.
    """
    if m < 1:
        raise FieldError(f"extension degree must be >= 1, got {m}")
    if not power_within(p, m, DEFAULT_ORDER_CAP):
        raise FieldError(f"field order {p}^{m} exceeds cap {DEFAULT_ORDER_CAP}")
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    field = _FIELDS.get((p, m))
    if field is None:
        field = FqField(p, m, _min_irreducible(p, m))
        kept = sum(f.order for f in _FIELDS.values())
        while kept + field.order > DEFAULT_ORDER_CAP:
            kept -= _FIELDS.pop(next(iter(_FIELDS))).order
        _FIELDS[p, m] = field
    return field


def _berlekamp_massey(s: Sequence[int], p: int) -> tuple[int, ...]:
    """Monic characteristic polynomial of the shortest linear recurrence of s over F_p.

    Massey, Shift-register synthesis and BCH decoding, IEEE Trans. IT 15
    (1969).  Returned constant term first, as a modulus.
    """
    c, b = [1], [1]  # connection polynomials: s[k] + c[1] s[k-1] + ... = 0
    length, shift, last = 0, 1, 1
    for k, sk in enumerate(s):
        d = (sk + sum(map(mul, c[1:length + 1], s[k - 1::-1]))) % p
        if not d:
            shift += 1
            continue
        coef = d * pow(last, p - 2, p) % p
        prev = c[:]
        c += [0] * (len(b) + shift - len(c))
        for i, bi in enumerate(b):
            c[i + shift] = (c[i + shift] - coef * bi) % p
        if 2 * length <= k:
            length, b, last, shift = k + 1 - length, prev, d, 1
        else:
            shift += 1
    return tuple(reversed((c + [0] * length)[:length + 1]))


_CHUNK = 1 << 12  # lanes per big-int operation: bounds the working memory of a build
_GATHER = 1 << 9  # indices per itemgetter call: its argument and result tuples are of ints


def _primitive_element(field: FqField) -> tuple[int, ...]:
    """Coefficients of the first primitive element of field in index order.

    For a prime ell | p - 1, c^(n/ell) = N(c)^((p-1)/ell) with n = q - 1, and
    the norm N(c) is one resultant; only the other primes take a power.  No
    element of F_p is primitive when m > 1, so the search then starts at t.
    """
    p, n = field.p, field.order - 1
    one = field._coeffs(1)
    small = _prime_factors(p - 1)
    large = [ell for ell in _prime_factors(n) if (p - 1) % ell]
    return next(c for c in map(field._coeffs, range(1 if field.m == 1 else p, field.order))
                if all(pow(_norm(c, field.modulus, p), (p - 1) // ell, p) != 1 for ell in small)
                and all(field._pow(c, n // ell) != one for ell in large))


def _m_sequence(start: list[int], p: int, n: int, w: int) -> bytearray:
    """n terms of the m-sequence that begins with start (2m terms), in w-byte lanes.

    Berlekamp-Massey gives the minimal polynomial f of the sequence, and
    x^N = sum a_i x^i mod f gives s(N+k) = sum a_i s(k+i).  Each doubling
    step takes N = the known length and computes the terms from N up to
    2N-m, a chunk at a time: the chunk's inputs form one int with a lane per
    term, it is multiplied by the a_i packed in lanes, and every lane of the
    product is reduced mod p by one Barrett multiply, shift and mask.  Lanes
    are widened past w bytes only inside a chunk, when m * (p-1)^2 needs it.
    """
    m = len(start) // 2
    s = bytearray(n * w)
    s[:2 * m * w] = b"".join(c.to_bytes(w, "little") for c in start)[:n * w]
    ring = FqField(p, m, _berlekamp_massey(start, p))
    # the known lengths run 2m, 3m + 1, 5m + 3, ...: known - m + 1 doubles, and
    # x^known = x^(m-1) * y for y = x^(known - m + 1), squared at each step
    lead, y = ((_udivmod((0,) * e + (1,), ring.modulus, p)[1] + (0,) * m)[:m]
               for e in (m - 1, m + 1))
    top = m * (p - 1) ** 2  # the largest lane of a product
    shift = (top * p).bit_length()  # Barrett: v * factor >> shift = v // p for v <= top
    factor = (1 << shift) // p + 1
    wide = max(w, -(-(top * factor).bit_length() // 8))
    chunk = min(n, _CHUNK)
    mask = int.from_bytes(((1 << 8 * wide - shift) - 1).to_bytes(wide, "little")
                          * (chunk + m), "little")
    known = 2 * m
    while known < n:
        a = ring._mul(lead, y)
        packed = int.from_bytes(b"".join(c.to_bytes(wide, "big") for c in a), "big")
        count = min(known - m + 1, n - known)
        for k0 in range(0, count, chunk):
            k1 = min(count, k0 + chunk)
            block = s[k0 * w:(k1 + m - 1) * w]
            if wide > w:
                block, narrow = bytearray(len(block) // w * wide), block
                for b in range(w):
                    block[b::wide] = narrow[b::w]
            v = int.from_bytes(block, "little") * packed >> 8 * wide * (m - 1)
            v -= p * ((v * factor >> shift) & mask)
            out = v.to_bytes((k1 - k0 + m) * wide, "little")
            if wide > w:
                for b in range(w):
                    s[(known + k0) * w + b:(known + k1) * w:w] = out[b:(k1 - k0) * wide:wide]
            else:
                s[(known + k0) * w:(known + k1) * w] = out[:(k1 - k0) * w]
        known += count
        y = ring._mul(y, y)
    return s


def _build_log_tables(field: FqField) -> tuple[array, array, array]:
    """The tables of `FqField.log_tables`, from big-integer operations on lanes.

    Every digit of g^k is an F_p-linear function of g^k, so each is a shift
    of the one m-sequence s(k) = digit 0 of g^k: digit j is s(k + e_j),
    where e_j is the place of digit j's first m values in s, since each
    nonzero m-window occurs once in a period (Golomb, Shift Register
    Sequences, 1967).  So exp is the sum of p^j times s rotated by e_j,
    formed in lanes of the tables' item width; the index of 1 + g^k is
    exp[k] + 1, less p where digit 0 is p - 1.  Beyond the tables, a build
    holds s and one chunk.
    """
    p, m, n = field.p, field.m, field.order - 1
    g = _primitive_element(field)
    powers = [field._coeffs(1)]
    for _ in range(2 * m - 1):
        powers.append(field._mul(powers[-1], g))
    bit = p.bit_length()  # digit 0 is p - 1 just when adding 2^bit - p + 1 carries into bit
    # the narrowest lanes that hold n and keep that carry inside the lane
    code = "H" if n < 2**16 and bit < 16 else "i"
    w = array(code).itemsize
    s = _m_sequence([c[0] for c in powers], p, n, w)

    shifts = []  # e_1, ..., e_(m-1); digit 0 is s itself
    if m > 1:  # searched for in a copy of s with one byte string per digit
        d = -(-(p - 1).bit_length() // 8)
        digits = bytearray(n * d)
        for b in range(d):
            digits[b::d] = s[b::w]
        digits += digits[:(m - 1) * d]  # windows that wrap past the end of the period
        for j in range(1, m):
            window = b"".join(c[j].to_bytes(d, "little") for c in powers[:m])
            pos = digits.index(window)
            while pos % d:  # a match across lanes; the lane-aligned one lies further on
                pos = digits.index(window, pos + 1)
            shifts.append(pos // d)
        del digits

    chunk = min(n, _CHUNK)
    ones = int.from_bytes((1).to_bytes(w, "little") * chunk, "little")
    carry = ones * ((1 << bit) - p + 1)
    exp, plus_one = array(code), array(code)
    for c0 in range(0, n, chunk):
        c1 = min(n, c0 + chunk)
        digit0 = v = int.from_bytes(s[c0 * w:c1 * w], "little")
        for j, e in enumerate(shifts, 1):
            lo = (c0 + e) % n
            hi = lo + c1 - c0
            v += p**j * int.from_bytes(s[lo * w:hi * w] if hi <= n
                                       else s[lo * w:] + s[:(hi - n) * w], "little")
        size = (c1 - c0) * w
        exp.frombytes(v.to_bytes(size, "little"))
        unit = ones >> 8 * (chunk * w - size)
        v += unit - p * ((digit0 + carry >> bit) & unit)
        plus_one.frombytes(v.to_bytes(size, "little"))
    del s
    if sys.byteorder == "big":
        exp.byteswap()
        plus_one.byteswap()
    exp.append(0)  # g^n stands for 0, and 1 + 0 = 1
    plus_one.append(1)
    return (exp,) + _log_and_zech(exp, plus_one)


def _log_and_zech(exp: array, plus_one: array) -> tuple[array, array]:
    """log, the inverse of exp, and zech = log of plus_one, which it overwrites.

    The build's only loops with a Python step per element.
    """
    log = array(exp.typecode, [0]) * len(exp)
    for i, e in enumerate(exp):
        log[e] = i
    for c in range(0, len(plus_one), _GATHER):
        got = itemgetter(*plus_one[c:c + _GATHER])(log)  # a bare int for a chunk of one
        plus_one[c:c + _GATHER] = array(exp.typecode, got if type(got) is tuple else (got,))
    return log, plus_one


def _build_frobenius_tables(field: FqField) -> tuple[array, dict[int, array]]:
    """The tables of `FqField.frobenius_tables`, with one Python step per
    element outside F_p.

    g^x lies in F_{p^d} iff (p^d - 1) x = 0 mod n, so the logs of F_{p^d}
    are the multiples of n / (p^d - 1), and n itself.  Those of F_p are
    fixed by Frobenius and filled by slices.  The larger subfields are
    walked smallest first, each in increasing order of log, so a log that
    no walked orbit has reached is the least log of an orbit of degree d,
    which is walked from it at once.
    """
    p, m, n = field.p, field.m, field.order - 1
    code = "i"  # signed: orbit holds -1
    orbit = array(code, [-1]) * (n + 1)
    step = n // (p - 1)  # each log of F_p is an orbit of its own
    by_degree = {1: array(code, range(0, n, step))}
    orbit[0:n:step] = by_degree[1]
    for d in (d for d in range(2, m + 1) if m % d == 0):
        by_degree[d] = col = array(code)
        for x in range(0, n, n // (p**d - 1)):
            if orbit[x] < 0:
                col.append(x)
                y = x
                for _ in range(d):
                    orbit[y] = x
                    y = y * p % n
        size = len(col)
        for _ in range(1, d):  # the next block is p times the one before it
            col.extend(x * p % n for x in col[-size:])
    by_degree[1].append(n)
    return orbit, by_degree


def min_subfield_degree(a: FqElement) -> int:
    """Least d with a in F_{p^d}, i.e. least d | m fixed by Frobenius^d."""
    m = a.field.m
    return next(d for d in range(1, m + 1) if m % d == 0 and a.frobenius(d) == a)
