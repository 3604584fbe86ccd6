"""Exact arithmetic in the tower F_p <= F_q <= k = F_{q^n}.

Elements of F_q = F_p[y]/(h) are canonically encoded as integers in
[0, q): the polynomial c_0 + c_1 y + ... is the integer c_0 + c_1 p + ...
Zero and one are therefore encoded by 0 and 1. Elements of k = F_q[x]/(g)
are length-n tuples of such integers, little-endian in the defining root.

The q-power map a -> a^q is F_q-linear on k; it is applied through a
precomputed table of the vectors x^(i*q) mod g rather than by repeated
exponentiation. The tower is immutable after construction and all element
operations are pure, so values can be shared freely.
"""

from __future__ import annotations

import itertools

from .errors import ContextError, TooLarge

_TABLE_LIMIT = 512  # largest q for which full mul/inv tables are built


def _int_poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _int_poly_mulmod(a: list[int], b: list[int], h: list[int], p: int) -> list[int]:
    # multiply two F_p polynomials and reduce modulo monic h
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    e = len(h) - 1
    for i in range(len(out) - 1, e - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(e):
                out[i - e + j] = (out[i - e + j] - c * h[j]) % p
    return _int_poly_trim(out)


def _int_poly_is_irreducible(h: list[int], p: int) -> bool:
    """Brute-force irreducibility over F_p: trial division by every monic
    polynomial of degree at most deg(h)/2."""
    deg = len(h) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            rem = list(h)
            # long division rem mod div
            for i in range(len(rem) - 1, d - 1, -1):
                c = rem[i]
                if c:
                    rem[i] = 0
                    for j in range(d):
                        rem[i - d + j] = (rem[i - d + j] - c * div[j]) % p
            if not any(rem):
                return False
    return True


def _fq_vec_divmod(fq: "Fq", a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Division with remainder of F_q coefficient vectors (b nonzero, trimmed)."""
    rem = list(a)
    db = len(b) - 1
    quo = [0] * max(0, len(rem) - db)
    lead_inv = fq.inv(b[-1])
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            c = fq.mul(c, lead_inv)
            quo[i - db] = c
            rem[i] = 0
            for j in range(db):
                rem[i - db + j] = fq.sub(rem[i - db + j], fq.mul(c, b[j]))
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Fq:
    """The base field F_q = F_p[y]/(h) with table-driven arithmetic.

    Elements are plain integers in [0, q); the zero and one of the field
    are the integers 0 and 1.
    """

    def __init__(self, p: int, e: int, h: tuple[int, ...]):
        # before the primality and irreducibility checks, which cost up to
        # sqrt(p) and q^(e/2) steps; e below the limit's bit length keeps
        # p**e small
        if p > 1 and e > 0 and (e >= _TABLE_LIMIT.bit_length() or p**e > _TABLE_LIMIT):
            raise TooLarge(f"q = {p}^{e} exceeds the desk-scale table limit")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        h = tuple(c % p for c in h)
        if len(h) != e + 1 or h[-1] != 1:
            raise ValueError("h must be monic of degree e")
        if not _int_poly_is_irreducible(list(h), p):
            raise ValueError("h is reducible over F_p")
        self.p = p
        self.e = e
        self.h = h
        self.q = p**e
        self._build_tables()

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        digits = [self._digits(a) for a in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                v = self._encode(_int_poly_mulmod(digits[a], digits[b], list(self.h), p))
                mul[a][b] = v
                mul[b][a] = v
        self._mul = mul
        inv = [0] * q
        for a in range(1, q):
            row = mul[a]
            for b in range(1, q):
                if row[b] == 1:
                    inv[a] = b
                    break
        self._inv = inv
        add = [[0] * q for _ in range(q)]
        for a in range(q):
            da = digits[a]
            for b in range(q):
                db = digits[b]
                s = [((da[i] if i < len(da) else 0) + (db[i] if i < len(db) else 0)) % p for i in range(e)]
                add[a][b] = self._encode(s)
        self._add = add
        self._neg = [add[0][0]] * q
        for a in range(q):
            da = digits[a]
            self._neg[a] = self._encode([(-c) % p for c in da] + [0] * (e - len(da)))

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits: list[int]) -> int:
        v = 0
        for c in reversed(digits):
            v = v * self.p + c
        return v

    # -- scalar operations (a, b are canonical integer encodings) --

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero in F_q")
        return self._inv[a]

    def pow(self, a: int, m: int) -> int:
        if m < 0:
            a, m = self.inv(a), -m
        r = 1
        while m:
            if m & 1:
                r = self._mul[r][a]
            a = self._mul[a][a]
            m >>= 1
        return r

    def elements(self) -> range:
        return range(self.q)

    def elem_text(self, a: int, sym: str = "y") -> str:
        """Render a scalar; plain integer for prime fields."""
        if self.e == 1:
            return str(a)
        digits = self._digits(a)
        terms = []
        for i in range(self.e - 1, -1, -1):
            c = digits[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = sym if i == 1 else f"{sym}^{i}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return "+".join(terms) if terms else "0"

    def __eq__(self, other) -> bool:
        return isinstance(other, Fq) and (self.p, self.h) == (other.p, other.h)

    def __hash__(self) -> int:
        return hash((self.p, self.h))

    def __repr__(self) -> str:
        return f"Fq(p={self.p}, e={self.e})"


class FieldTower:
    """The chain F_p <= F_q = F_p[y]/(h) <= k = F_q[x]/(g)."""

    def __init__(self, p: int, e: int, h, n: int, g):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.fq = Fq(p, e, tuple(h))
        self.p = p
        self.e = e
        self.n = n
        self.q = self.fq.q
        g = tuple(c % self.q if isinstance(c, int) else c for c in g)
        if len(g) != n + 1 or g[-1] != 1:
            raise ValueError("g must be monic of degree n")
        if not self._fq_poly_is_irreducible(list(g)):
            raise ValueError("g is reducible over F_q")
        self.g = g
        self._frob_vectors = self._build_frobenius()
        self.zero = KElem(self, (0,) * n)
        self.one = KElem(self, (1,) + (0,) * (n - 1))

    # -- raw F_q[x] helpers (coefficient lists of F_q scalars) --

    def _fq_poly_mod(self, a: list[int], d: list[int]) -> list[int]:
        return _fq_vec_divmod(self.fq, a, d)[1]

    def _fq_poly_is_irreducible(self, g: list[int]) -> bool:
        deg = len(g) - 1
        if deg <= 0:
            return False
        q = self.q
        work = sum(q**d for d in range(1, deg // 2 + 1))
        if work > 10**6:
            raise TooLarge("irreducibility check beyond desk scale")
        for d in range(1, deg // 2 + 1):
            for tail in itertools.product(range(q), repeat=d):
                if not self._fq_poly_mod(g, list(tail) + [1]):
                    return False
        return True

    def _build_frobenius(self) -> list[tuple[int, ...]]:
        # vectors of x^(i*q) mod g; a -> a^q is F_q-linear through these
        n, q = self.n, self.q
        vecs = []
        xq = self._fq_poly_mod([0] * q + [1], list(self.g))
        cur = [1]
        for _ in range(n):
            v = cur + [0] * (n - len(cur))
            vecs.append(tuple(v))
            nxt = [0] * (len(cur) + len(xq) - 1) if cur and xq else []
            for i, ci in enumerate(cur):
                if ci:
                    for j, dj in enumerate(xq):
                        nxt[i + j] = self.fq.add(nxt[i + j], self.fq.mul(ci, dj))
            cur = self._fq_poly_mod(nxt, list(self.g))
        return vecs

    # -- element constructors --

    def elem(self, coeffs) -> KElem:
        c = list(coeffs)
        if len(c) > self.n:
            raise ValueError("coefficient vector longer than [k : F_q]")
        c = c + [0] * (self.n - len(c))
        return KElem(self, tuple(v % self.q for v in c))

    def embed_fq(self, a: int) -> KElem:
        return self.elem([a % self.q])

    def gen(self) -> KElem:
        """The residue of x, generating k over F_q (only if n > 1)."""
        return self.elem([0, 1]) if self.n > 1 else self.one

    def elements(self):
        """All q^n elements, exactly once, in lexicographic coefficient order."""
        for tup in itertools.product(range(self.q), repeat=self.n):
            yield KElem(self, tup)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldTower) and (self.fq, self.n, self.g) == (
            other.fq,
            other.n,
            other.g,
        )

    def __hash__(self) -> int:
        return hash((self.fq, self.n, self.g))

    def __repr__(self) -> str:
        return f"FieldTower(q={self.q}, n={self.n})"


class KElem:
    """An element of k, as a length-n coefficient tuple over F_q."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs: tuple[int, ...]):
        self.tower = tower
        self.coeffs = coeffs

    def _check(self, other: KElem) -> None:
        if self.tower is not other.tower and self.tower != other.tower:
            raise ContextError("elements of different towers")

    def __add__(self, other: KElem) -> KElem:
        self._check(other)
        fq = self.tower.fq
        return KElem(self.tower, tuple(fq.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: KElem) -> KElem:
        self._check(other)
        fq = self.tower.fq
        return KElem(self.tower, tuple(fq.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> KElem:
        fq = self.tower.fq
        return KElem(self.tower, tuple(fq.neg(a) for a in self.coeffs))

    def __mul__(self, other: KElem) -> KElem:
        self._check(other)
        t = self.tower
        fq = t.fq
        prod = [0] * (2 * t.n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] = fq.add(prod[i + j], fq.mul(a, b))
        red = t._fq_poly_mod(prod, list(t.g))
        return KElem(t, tuple(red + [0] * (t.n - len(red))))

    def inv(self) -> KElem:
        """Multiplicative inverse by extended Euclid in F_q[x] mod g."""
        if not self:
            raise ZeroDivisionError("inversion of zero in k")
        t = self.tower
        fq = t.fq
        # extended gcd of (g, self as poly), tracking coefficients of self
        r0, r1 = list(t.g), [c for c in self.coeffs]
        while r1 and r1[-1] == 0:
            r1.pop()
        s0, s1 = [], [1]
        while r1:
            quo, rem = _fq_vec_divmod(fq, r0, r1)
            qs = [0] * (len(quo) + len(s1) - 1) if quo and s1 else []
            for i, ci in enumerate(quo):
                if ci:
                    for j, dj in enumerate(s1):
                        qs[i + j] = fq.add(qs[i + j], fq.mul(ci, dj))
            news = [
                fq.sub(s0[i] if i < len(s0) else 0, qs[i] if i < len(qs) else 0)
                for i in range(max(len(s0), len(qs)))
            ]
            while news and news[-1] == 0:
                news.pop()
            r0, r1, s0, s1 = r1, rem, s1, news
        # r0 is now a unit scalar gcd; s0 * self = r0 (mod g)
        c = fq.inv(r0[0])
        out = [fq.mul(c, v) for v in s0]
        return t.elem(out)

    def __truediv__(self, other: KElem) -> KElem:
        return self * other.inv()

    def __pow__(self, m: int) -> KElem:
        if m < 0:
            return self.inv() ** (-m)
        r = self.tower.one
        b = self
        while m:
            if m & 1:
                r = r * b
            b = b * b
            m >>= 1
        return r

    def frobq(self, j: int = 1) -> KElem:
        """The image under a -> a^(q^j)."""
        t = self.tower
        fq = t.fq
        coeffs = self.coeffs
        for _ in range(j % t.n):
            out = [0] * t.n
            for i, a in enumerate(coeffs):
                if a:
                    vec = t._frob_vectors[i]
                    for m in range(t.n):
                        if vec[m]:
                            out[m] = fq.add(out[m], fq.mul(a, vec[m]))
            coeffs = tuple(out)
        return KElem(t, coeffs)

    def in_fq(self) -> bool:
        return not any(self.coeffs[1:])

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, KElem) and self.coeffs == other.coeffs and self.tower == other.tower

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def text(self, sym: str = "t") -> str:
        """Canonical rendering as a polynomial in the generator of k."""
        fq = self.tower.fq
        terms = []
        for i in range(self.tower.n - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            ctext = fq.elem_text(c)
            if i == 0:
                terms.append(ctext if fq.e == 1 else f"({ctext})" if "+" in ctext else ctext)
                continue
            var = sym if i == 1 else f"{sym}^{i}"
            if c == 1:
                terms.append(var)
            elif fq.e == 1:
                terms.append(f"{ctext}*{var}")
            else:
                terms.append(f"({ctext})*{var}")
        return "+".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return self.text()
