"""Exact arithmetic in finite fields F_{p^m}.

A field is described by a prime p, an extension degree m and a monic
irreducible modulus over F_p chosen deterministically, so two runs (or two
processes) always agree on the representation.  Elements are dense
coefficient vectors in the polynomial basis 1, t, ..., t^{m-1}, always fully
reduced.  Everything is exact integer arithmetic; fields and elements are
immutable and safe to share.

An element's index is the base-p value of its coefficients (`from_int`,
`to_int`).  `FqField.log_tables` gives exp/log/Zech tables over these
indices for one primitive element, so products, sums and Frobenius powers
become integer arithmetic on logarithms.  They take three `array`s of q
ints (12 bytes per element) and O(q*m) integer steps to build, about a
second for F_{2^20}; a field builds them on first use.  Quasi-fixed point
enumeration runs on them, and so do the 2x2 matrices of `matrep`, which
store their entries as logarithms: every certificate search and every
verification builds the tables of its field.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

DEFAULT_ORDER_CAP = 2**20


class FieldError(ValueError):
    """Invalid field construction or mixed-field arithmetic."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# univariate helpers over F_p; polynomials are tuples, constant term first,
# no trailing zeros (the zero polynomial is the empty tuple)

def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _umul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _usub(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    return _trim(out)


def _udivmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], p - 2, p)
    while len(r) >= len(b) and any(r):
        if r[-1] == 0:
            r.pop()
            continue
        coef = (r[-1] * inv_lead) % p
        shift = len(r) - len(b)
        q[shift] = coef
        for i, bi in enumerate(b):
            if bi:
                r[shift + i] = (r[shift + i] - coef * bi) % p
        r.pop()
    return _trim(q), _trim(r)


def _ugcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _udivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _upowmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    b = _udivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _udivmod(_umul(result, b, p), mod, p)[1]
        b = _udivmod(_umul(b, b, p), mod, p)[1]
        e >>= 1
    return result


def _is_irreducible(mod: Sequence[int], p: int) -> bool:
    """Rabin test: x^(p^m) = x mod f, and x^(p^(m/l)) - x coprime to f."""
    m = len(mod) - 1
    x = (0, 1)
    if _upowmod(x, p**m, mod, p) != _udivmod(x, mod, p)[1]:
        return False
    for ell in range(2, m + 1):
        if m % ell == 0 and is_prime(ell):
            h = _upowmod(x, p ** (m // ell), mod, p)
            diff = _usub(h, x, p)
            if len(_ugcd(diff, mod, p)) != 1:
                return False
    return True


def _min_irreducible(p: int, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m, low coefficients counted in base p."""
    for code in range(p**m):
        coeffs = []
        c = code
        for _ in range(m):
            coeffs.append(c % p)
            c //= p
        cand = tuple(coeffs) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible polynomial of degree {m} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------

class FqField:
    """Descriptor of F_{p^m} with a fixed monic irreducible modulus."""

    __slots__ = ("p", "m", "modulus", "order", "_red", "_embed_cache", "_log_tables")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.modulus = modulus
        self.order = p**m
        # x^(m+i) mod modulus for i = 0..m-2, used to fold products back down
        red = []
        cur = [(-c) % p for c in modulus[:-1]]
        for _ in range(max(m - 1, 0)):
            red.append(tuple(cur))
            cur = [0] + cur
            top = cur.pop()
            if top:
                cur = [(ci + top * ri) % p for ci, ri in zip(cur, red[0])]
        self._red = red
        self._embed_cache: dict[tuple, tuple["FqField", "FqElement"]] = {}
        self._log_tables: tuple[array, array, array] | None = None

    def __eq__(self, other: object) -> bool:
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

    def __iter__(self) -> Iterator["FqElement"]:
        for n in range(self.order):
            yield self.from_int(n)

    # -- raw coefficient-vector arithmetic

    def _coeffs(self, n: int) -> tuple[int, ...]:
        coeffs = []
        for _ in range(self.m):
            coeffs.append(n % self.p)
            n //= self.p
        return tuple(coeffs)

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
        out = [c % p for c in prod[:m]]
        for i in range(m, 2 * m - 1):
            c = prod[i] % p
            if c:
                row = self._red[i - m]
                for j in range(m):
                    out[j] = (out[j] + c * row[j]) % p
        return tuple(out)

    def _inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        if not any(a):
            raise ZeroDivisionError("inversion of zero field element")
        p = self.p
        if self.m == 1:
            return (pow(a[0], p - 2, p),)
        # extended Euclid in F_p[x]: s*a = gcd(a, modulus) = const
        r0, r1 = self.modulus, _trim(list(a))
        s0, s1 = (), (1,)
        while r1:
            q, r = _udivmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _usub(s0, _umul(q, s1, p), p)
        lead_inv = pow(r0[-1], p - 2, p)
        inv = [(c * lead_inv) % p for c in s0]
        return tuple((inv + [0] * self.m)[: self.m])

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
        if self._log_tables is None:
            self._log_tables = _build_log_tables(self)
        return self._log_tables


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

    def __neg__(self) -> "FqElement":
        p = self.field.p
        return FqElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        return FqElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    def inv(self) -> "FqElement":
        return FqElement(self.field, self.field._inv(self.coeffs))

    def __truediv__(self, other: "FqElement") -> "FqElement":
        self._check(other)
        return self * other.inv()

    def __pow__(self, e: int) -> "FqElement":
        if e < 0:
            return self.inv() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def frobenius(self, e: int = 1) -> "FqElement":
        """a -> a^(p^e), Frobenius relative to the prime field."""
        if e < 0:
            raise FieldError("Frobenius power must be nonnegative")
        out = self
        for _ in range(e):
            out = out**self.field.p
        return out

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


def field_create(p: int, m: int, cap: int = DEFAULT_ORDER_CAP) -> FqField:
    """F_{p^m} with the first irreducible modulus in deterministic order."""
    if m < 1:
        raise FieldError(f"extension degree must be >= 1, got {m}")
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if p**m > cap:
        raise FieldError(f"field order {p}^{m} exceeds cap {cap}")
    return FqField(p, m, _min_irreducible(p, m))


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def _build_log_tables(field: FqField) -> tuple[array, array, array]:
    """The tables of `FqField.log_tables`, in O(q*m) integer steps.

    The build walks indices under multiplication by w, where w = g when
    m = 1 and w = t (the class of x) otherwise.  Multiplying by t shifts
    the digits up and adds top * (x^m mod modulus), top being the digit
    shifted out, so output digit i only depends on input digits i-1 and
    m-1.  With h = ceil(m/2), t*a is the sum of a lookup keyed by the input
    digits below h-1 and top (output digits below h) and one keyed by the
    input digits from h-1 up (the other output digits): tables of at most
    p*sqrt(q) entries.  t need not be primitive: with r its order and
    k = n / r, g^k = t^u for some u, and exp[a + k*b] = g^a * t^(u*b) is a
    walk through the coset g^a <t>.
    """
    p, m, n = field.p, field.m, field.order - 1
    primes = _prime_factors(n)
    g_coeffs = next(c for c in map(field._coeffs, range(1, field.order))
                    if all(_upowmod(c, n // ell, field.modulus, p) != (1,) for ell in primes))
    if m == 1:
        g = g_coeffs[0]

        def step(a: int) -> int:
            return a * g % p
    else:
        h = (m + 1) // 2
        ph1, pm1 = p ** (h - 1), p ** (m - 1)
        red = field._red[0]

        def digits_of_t_times(top: int, first: int, stop: int) -> list[int]:
            # digits first..stop-1 of t*a for a_(m-1) = top, keyed by a_(first-1)..a_(stop-2)
            out = [0]
            for i in range(first, stop):
                out = [v + (d + top * red[i]) % p * p**i for d in range(p) for v in out]
            return out

        lo = array("q", (v + top * red[0] % p for top in range(p)
                         for v in digits_of_t_times(top, 1, h)))
        hi = array("q", (v for top in range(p) for v in digits_of_t_times(top, h, m)))

        def step(a: int) -> int:
            return hi[a // ph1] + lo[a % ph1 + a // pm1 * ph1]

    code = "i" if n < 2**31 else "q"
    coset = array(code, [1])
    a = step(1)
    while a != 1:
        coset.append(a)
        a = step(a)
    r = len(coset)
    k = n // r
    u = coset.index(field._index(_upowmod(g_coeffs, k, field.modulus, p)))
    exp = array(code, [0]) * (n + 1)
    rep = field._coeffs(1)
    for a in range(k):
        if a:
            rep = field._mul(rep, g_coeffs)
            coset[0] = field._index(rep)
            for i in range(1, r):
                coset[i] = step(coset[i - 1])
        exp[a:n:k] = array(code, (coset[u * b % r] for b in range(r)))
    log = array(code, [0]) * (n + 1)
    for i, e in enumerate(exp):
        log[e] = i
    zech = array(code, (log[e + 1 if e % p != p - 1 else e + 1 - p] for e in exp))
    return exp, log, zech


def embed(a: FqElement, target: FqField) -> FqElement:
    """Image of a under the fixed embedding F_{p^d} -> F_{p^m}, d | m.

    The embedding sends the source generator to the first root (in element
    enumeration order) of the source modulus inside the target field, so it
    is deterministic, a ring homomorphism, and commutes with Frobenius.
    """
    src = a.field
    if src.p != target.p:
        raise FieldError("embedding requires equal characteristic")
    if target.m % src.m != 0:
        raise FieldError(f"no embedding: degree {src.m} does not divide {target.m}")
    if src == target:
        return a
    key = (src.p, src.m, src.modulus)
    cached = target._embed_cache.get(key)
    if cached is None:
        root = None
        for cand in target:
            acc = target.zero()
            for c in reversed(src.modulus):
                acc = acc * cand + target.scalar(c)
            if acc.is_zero():
                root = cand
                break
        if root is None:
            raise FieldError("source modulus has no root in target field")  # unreachable
        target._embed_cache[key] = (src, root)
    else:
        root = cached[1]
    out = target.zero()
    power = target.one()
    for c in a.coeffs:
        if c:
            out = out + target.scalar(c) * power
        power = power * root
    return out


def min_subfield_degree(a: FqElement) -> int:
    """Least d with a in F_{p^d}, i.e. least d | m fixed by Frobenius^d."""
    m = a.field.m
    for d in range(1, m + 1):
        if m % d == 0 and a.frobenius(d) == a:
            return d
    return m
