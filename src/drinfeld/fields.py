"""Exact arithmetic in the tower F_p <= F_q <= k = F_{q^n}.

Elements of F_q = F_p[y]/(h) are canonically encoded as integers in
[0, q): the polynomial c_0 + c_1 y + ... is the integer c_0 + c_1 p + ...
Zero and one are therefore encoded by 0 and 1. Elements of k = F_q[x]/(g)
are length-n tuples of such integers, little-endian in the defining root.

When q^n <= _LOG_TABLE_LIMIT, products, inverses, powers and q-power maps
in k are lookups in discrete-log tables: exp[i] = gamma^i for a primitive
element gamma of k, and log, its inverse. The tables also hold the Zech
logarithms zech[z] = log(1 + gamma^z), which make a sum of two nonzero
elements one lookup on their logarithms; k{tau} (the skew module) runs its
products, right divisions and centralizer columns on logarithms that way,
while KElem sums stay coordinate-wise. A tower loads the tables on its
first such operation, and towers with the same defining data share them.
Larger towers take the polynomial path, which also builds the tables:
APoly products and powers reduced mod g, inverses by extended Euclid, and
a -> a^(q^j) as one product by the matrix of x^(i*q^j) mod g (the q-power
map is F_q-linear on k), kept per field definition. F_q itself is built
the same way over F_p: its product and inverse tables are read off the
discrete-log tables of F_p[y]/(h).
The tower is immutable after construction and all element operations are
pure, so values can be shared freely.
"""

from __future__ import annotations

import functools
import itertools
from functools import cached_property

from .apoly import APoly
from .errors import ContextError, TooLarge

_TABLE_LIMIT = 512  # largest q for which full mul/inv tables are built
# largest q^n for which k gets discrete-log tables: building them costs a
# schoolbook product per element, which a single CLI request over a larger
# k does not win back
_LOG_TABLE_LIMIT = 1 << 12


def _vector(a: APoly, n: int) -> tuple[int, ...]:
    """The coefficient tuple of a reduced polynomial, padded to n entries."""
    return a.coeffs + (0,) * (n - len(a.coeffs))


def _poly_frob(fq: "Fq", rows: tuple[tuple[int, ...], ...], a) -> tuple[int, ...]:
    """a^(q^j) as one product of the coefficient vector a by the matrix
    of the F_q-linear map a -> a^(q^j) (rows[i] = x^(i*q^j) mod g,
    `_frob_matrix`), summed on the F_q tables row by row."""
    add, mul = fq._add, fq._mul
    out = (0,) * len(rows)
    for ai, row in zip(a, rows):
        if ai:
            scaled = map(mul[ai].__getitem__, row)
            out = tuple(map(list.__getitem__, map(add.__getitem__, out), scaled))
    return out


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _primitive_powers(fq: Fq, g: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The powers gamma^i, 0 <= i < q^n - 1, of a primitive element gamma
    of F_q[x]/(g), for g monic irreducible of degree n, as coefficient
    tuples of length n."""
    n = len(g) - 1
    order = fq.q**n - 1
    modulus = APoly(fq, g)
    one = APoly.one(fq)
    # gamma is primitive iff gamma^(order/l) != 1 for every prime l | order;
    # candidates go by ascending degree, and a sparse gamma of low degree
    # makes each product below cost O(n), not O(n^2)
    cofactors = [order // ell for ell in _prime_factors(order)]
    gamma = next(
        a
        for a in (APoly(fq, rev[::-1]) for rev in itertools.product(range(fq.q), repeat=n))
        if a and all(a.powmod(c, modulus).coeffs != one.coeffs for c in cofactors)
    )
    powers = [one]
    for _ in range(order - 1):
        powers.append(powers[-1] * gamma % modulus)
    return [_vector(a, n) for a in powers]


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
        if e < 1:
            raise ValueError("e must be at least 1")
        # before the primality check, which costs up to sqrt(p) steps; e
        # below the limit's bit length keeps p**e small
        if p > 1 and (e >= _TABLE_LIMIT.bit_length() or p**e > _TABLE_LIMIT):
            raise TooLarge(f"q = {p}^{e} exceeds the desk-scale table limit")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        h = tuple(c % p for c in h)
        if len(h) != e + 1 or h[-1] != 1:
            raise ValueError("h must be monic of degree e")
        if e > 1 and not APoly(base_field(p, 1, (0, 1)), h).is_irreducible():
            raise ValueError("h is reducible over F_p")
        self.p = p
        self.e = e
        self.h = h
        self.q = p**e
        self._build_tables()

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        if e == 1:
            self._mul = [[a * b % p for b in range(q)] for a in range(q)]
            self._inv = [0] + [pow(a, -1, p) for a in range(1, q)]
        else:
            # F_p[y]/(h) is built as k is: mul[a][b] = exp[(log a + log b) mod (q - 1)]
            exp = [self._encode(v) for v in _primitive_powers(base_field(p, 1, (0, 1)), self.h)]
            log = [0] * q
            for i, a in enumerate(exp):
                log[a] = i
            self._mul = [[0] * q] + [
                [0] + [exp[(log[a] + lb) % (q - 1)] for lb in log[1:]] for a in range(1, q)
            ]
            self._inv = [0] + [exp[-log[a] % (q - 1)] for a in range(1, q)]
        # sums are digit-wise mod p, built up one base-p digit at a time
        add = [[0]]
        for size in (p**i for i in range(e)):
            add = [
                [
                    add[a % size][b % size] + size * ((a // size + b // size) % p)
                    for b in range(size * p)
                ]
                for a in range(size * p)
            ]
        self._add = add
        self._neg = [row.index(0) for row in add]

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


@functools.cache
def base_field(p: int, e: int, h: tuple[int, ...]) -> Fq:
    """F_p[y]/(h), built once per definition and kept for the life of the
    process: its tables hold q^2 entries."""
    return Fq(p, e, h)


class _LogTables:
    """Discrete-log tables of k: exp[i] = gamma^i for a primitive element
    gamma and 0 <= i < order = q^n - 1, log[exp[i]] = i, and
    qpow[j] = q^j mod order, so a^(q^j) = exp[log[a] * qpow[j] % order].
    Zero has no logarithm.

    Sums are lookups too: zech[z] = log(1 + gamma^z), or None where
    1 + gamma^z = 0, so gamma^a + gamma^b = gamma^(a + zech[b - a]) (the
    Zech logarithm), and neg = log(-1) is 0 in characteristic 2 and
    order/2 otherwise, so -gamma^a = gamma^(a + neg)."""

    __slots__ = ("exp", "log", "order", "qpow", "zech", "neg")

    def __init__(self, exp: list[tuple[int, ...]], fq: Fq):
        self.exp = exp
        self.log = {a: i for i, a in enumerate(exp)}
        self.order = len(exp)
        n = len(exp[0])
        self.qpow = [pow(fq.q, j, self.order) for j in range(n)]
        inc = fq._add[1]
        self.zech = [self.log.get((inc[v[0]],) + v[1:]) for v in exp]
        self.neg = 0 if fq.p == 2 else self.order // 2


@functools.cache
def _log_tables(fq: Fq, g: tuple[int, ...]) -> _LogTables:
    """The tables of k = F_q[x]/(g), built once per definition (fq compares
    by p and h, and g fixes n) by the polynomial path and kept for the life
    of the process, so a field loaded again never rebuilds them."""
    return _LogTables(_primitive_powers(fq, g), fq)


@functools.cache
def _frob_matrix(fq: Fq, g: tuple[int, ...], j: int) -> tuple[tuple[int, ...], ...]:
    """The rows x^(i*q^j) mod g, 0 <= i < n, of the q^j-power map of
    k = F_q[x]/(g), built once per definition and j, as the log tables
    are, so a tower loaded again never rebuilds them."""
    modulus = APoly(fq, g)
    n = len(g) - 1
    xqj = APoly.var(fq).powmod(fq.q**j, modulus)
    rows = [APoly.one(fq)]
    for _ in range(n - 1):
        rows.append(rows[-1] * xqj % modulus)
    return tuple(_vector(v, n) for v in rows)


@functools.cache
def _is_irreducible(fq: Fq, g: tuple[int, ...]) -> bool:
    """Ben-Or's verdict on the modulus g over F_q, decided once per
    definition: every request that loads a field builds its tower again."""
    return APoly(fq, g).is_irreducible()


class FieldTower:
    """The chain F_p <= F_q = F_p[y]/(h) <= k = F_q[x]/(g)."""

    def __init__(self, p: int, e: int, h, n: int, g):
        if n < 1:
            raise ValueError("n must be at least 1")
        self.fq = base_field(p, e, tuple(h))
        self.p = p
        self.e = e
        self.n = n
        self.q = self.fq.q
        g = tuple(c % self.q if isinstance(c, int) else c for c in g)
        if len(g) != n + 1 or g[-1] != 1:
            raise ValueError("g must be monic of degree n")
        # desk scale: sum_{d <= n/2} q^d <= 10^6; twenty terms decide it,
        # as 2^20 > 10^6
        if sum(self.q**d for d in range(1, min(n // 2, 20) + 1)) > 10**6:
            raise TooLarge(f"k of degree {n} over F_{self.q} is beyond desk scale")
        self._modulus = APoly(self.fq, g)
        if not _is_irreducible(self.fq, g):
            raise ValueError("g is reducible over F_q")
        self.g = g
        self.zero = KElem(self, (0,) * n)
        self.one = KElem(self, (1,) + (0,) * (n - 1))

    @cached_property
    def _tables(self) -> _LogTables | None:
        """Discrete-log tables of k, loaded on first use and shared by
        equal towers; None above _LOG_TABLE_LIMIT."""
        if self.q**self.n > _LOG_TABLE_LIMIT:
            return None
        return _log_tables(self.fq, self.g)

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

    def _poly(self) -> APoly:
        return APoly(self.tower.fq, self.coeffs)

    def _check(self, other: KElem) -> None:
        if self.tower is not other.tower and self.tower != other.tower:
            raise ContextError("elements of different towers")

    # sums read the F_q tables row by row: add[a][b] for each coordinate
    # pair, with no per-coordinate method call
    def __add__(self, other: KElem) -> KElem:
        self._check(other)
        rows = map(self.tower.fq._add.__getitem__, self.coeffs)
        return KElem(self.tower, tuple(map(list.__getitem__, rows, other.coeffs)))

    def __sub__(self, other: KElem) -> KElem:
        self._check(other)
        fq = self.tower.fq
        rows = map(fq._add.__getitem__, self.coeffs)
        negs = map(fq._neg.__getitem__, other.coeffs)
        return KElem(self.tower, tuple(map(list.__getitem__, rows, negs)))

    def __neg__(self) -> KElem:
        return KElem(self.tower, tuple(map(self.tower.fq._neg.__getitem__, self.coeffs)))

    def __mul__(self, other: KElem) -> KElem:
        self._check(other)
        t = self.tower
        tab = t._tables
        if tab is None:
            return KElem(t, _vector(self._poly() * other._poly() % t._modulus, t.n))
        la = tab.log.get(self.coeffs)
        lb = tab.log.get(other.coeffs)
        if la is None or lb is None:  # zero has no logarithm
            return t.zero
        return KElem(t, tab.exp[(la + lb) % tab.order])

    def inv(self) -> KElem:
        t = self.tower
        tab = t._tables
        if tab is None:
            if not self:
                raise ZeroDivisionError("inversion of zero in k")
            return KElem(t, _vector(self._poly().inverse_mod(t._modulus), t.n))
        la = tab.log.get(self.coeffs)
        if la is None:
            raise ZeroDivisionError("inversion of zero in k")
        return KElem(t, tab.exp[-la % tab.order])

    def __truediv__(self, other: KElem) -> KElem:
        return self * other.inv()

    def __pow__(self, m: int) -> KElem:
        t = self.tower
        tab = t._tables
        if tab is None:
            base = self.inv() if m < 0 else self
            return KElem(t, _vector(base._poly().powmod(abs(m), t._modulus), t.n))
        la = tab.log.get(self.coeffs)
        if la is None:
            if m < 0:
                raise ZeroDivisionError("inversion of zero in k")
            return t.zero if m else t.one
        return KElem(t, tab.exp[la * m % tab.order])

    def frobq(self, j: int = 1) -> KElem:
        """The image under a -> a^(q^j)."""
        t = self.tower
        tab = t._tables
        if tab is None:
            return KElem(t, _poly_frob(t.fq, _frob_matrix(t.fq, t.g, j % t.n), self.coeffs))
        la = tab.log.get(self.coeffs)
        if la is None:
            return self
        return KElem(t, tab.exp[la * tab.qpow[j % t.n] % tab.order])

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
