"""The commutative substrate A = F_q[T].

APoly stores coefficient tuples over F_q, little-endian in T, with no
trailing zeros (the zero polynomial is the empty tuple). It is the one
scalar type: a value of the fraction field F = F_q(T) (a lattice, an
index, a norm) is kept as APoly numerators over an explicit monic APoly
denominator and divided exactly where the result is known to lie in A.

The canonical text form is `T^4+T+1` (descending powers, `*` between a
nontrivial coefficient and the variable); golden files and reports rely
on it being stable.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .errors import TooLarge

if TYPE_CHECKING:  # fields builds F_q and k on APoly, so it imports this module
    from .fields import Fq, KElem


class APoly:
    __slots__ = ("fq", "coeffs")

    def __init__(self, fq: Fq, coeffs=()):
        c = tuple(coeffs)
        n = len(c)
        while n and c[n - 1] == 0:
            n -= 1
        self.fq = fq
        self.coeffs = c[:n] if n < len(c) else c

    # -- constructors --

    @staticmethod
    def zero(fq: Fq) -> APoly:
        return _poly(fq, ())

    @staticmethod
    def one(fq: Fq) -> APoly:
        return _poly(fq, (1,))

    @staticmethod
    def const(fq: Fq, c: int) -> APoly:
        return APoly(fq, (c % fq.q,))

    @staticmethod
    def var(fq: Fq) -> APoly:
        """The generator T."""
        return APoly(fq, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_monic(self) -> bool:
        return self.lc() == 1

    # -- arithmetic --
    #
    # The kernels read the F_q tables a row at a time (a + b is
    # add[a][b], c * b is mul[c][b]) and call no F_q method per
    # coefficient. Results whose top coefficient is known to be nonzero
    # skip the trailing-zero strip.

    def __add__(self, other: APoly) -> APoly:
        fq = self.fq
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        head = tuple(map(list.__getitem__, map(fq._add.__getitem__, a), b))
        if len(a) > len(b):
            return _poly(fq, head + a[len(b) :])
        return APoly(fq, head)

    def __neg__(self) -> APoly:
        return _poly(self.fq, tuple(map(self.fq._neg.__getitem__, self.coeffs)))

    def __sub__(self, other: APoly) -> APoly:
        fq = self.fq
        a, b = self.coeffs, other.coeffs
        neg = fq._neg.__getitem__
        head = tuple(map(list.__getitem__, map(fq._add.__getitem__, a), map(neg, b)))
        if len(a) > len(b):
            return _poly(fq, head + a[len(b) :])
        if len(a) < len(b):
            return _poly(fq, head + tuple(map(neg, b[len(a) :])))
        return APoly(fq, head)

    def __mul__(self, other: APoly) -> APoly:
        fq = self.fq
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _poly(fq, ())
        if len(a) > len(b):
            a, b = b, a
        add, mul = fq._add, fq._mul
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                row = mul[ai]
                for j, bj in enumerate(b, i):
                    out[j] = add[out[j]][row[bj]]
        # the top coefficient is the product of two nonzero leading ones
        return _poly(fq, tuple(out))

    def scale(self, c: int) -> APoly:
        if c == 0:
            return _poly(self.fq, ())
        if c == 1:
            return self
        return _poly(self.fq, tuple(map(self.fq._mul[c].__getitem__, self.coeffs)))

    def __divmod__(self, other: APoly) -> tuple[APoly, APoly]:
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        fq = self.fq
        b = other.coeffs
        d = len(b) - 1
        if len(self.coeffs) <= d:
            return _poly(fq, ()), self
        add, mul, neg = fq._add, fq._mul, fq._neg
        rem = list(self.coeffs)
        quo = [0] * (len(rem) - d)
        lead_inv = mul[fq._inv[b[-1]]]
        low = b[:-1]  # the top term of c * b cancels rem[i]
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                c = lead_inv[c]
                quo[i - d] = c
                row = mul[neg[c]]
                for j, bj in enumerate(low, i - d):
                    if bj:
                        rem[j] = add[rem[j]][row[bj]]
        # the first quotient term is lc(self) / lc(other), nonzero
        return _poly(fq, tuple(quo)), APoly(fq, rem[:d])

    def __mod__(self, other: APoly) -> APoly:
        return divmod(self, other)[1]

    def exact_div(self, other: APoly) -> APoly:
        q, r = divmod(self, other)
        if r:
            raise ValueError("division is not exact")
        return q

    def __pow__(self, m: int) -> APoly:
        if m < 0:
            raise ValueError("negative exponent; invert first")
        r = APoly.one(self.fq)
        b = self
        while m:
            if m & 1:
                r = r * b
            b = b * b
            m >>= 1
        return r

    def powmod(self, m: int, modulus: APoly) -> APoly:
        """Modular exponentiation self^m mod modulus, for m >= 0."""
        if not modulus:
            raise ZeroDivisionError("reduction modulo the zero polynomial")
        if m < 0:
            raise ValueError("negative exponent; invert first")
        # r stays None until the first factor, and the last square is
        # skipped: a power of two costs its squarings only
        r = None
        b = self % modulus
        while m:
            if m & 1:
                r = b if r is None else r * b % modulus
            m >>= 1
            if m:
                b = b * b % modulus
        return APoly.one(self.fq) % modulus if r is None else r

    def monic(self) -> APoly:
        if not self:
            return self
        return self.scale(self.fq._inv[self.coeffs[-1]])

    def derivative(self) -> APoly:
        # i mod p lies in the prime field, whose elements encode as 0..p-1
        fq = self.fq
        out = []
        for i in range(1, len(self.coeffs)):
            k = i % fq.p
            out.append(fq.mul(self.coeffs[i], k) if k else 0)
        return APoly(fq, out)

    def eval_in_k(self, x: KElem) -> KElem:
        """Evaluate at an element of k, embedding F_q coefficients."""
        t = x.tower
        acc = t.zero
        for c in reversed(self.coeffs):
            acc = acc * x + t.embed_fq(c)
        return acc

    # -- structure --

    def inverse_mod(self, modulus: APoly) -> APoly:
        """The inverse of self modulo modulus, by extended Euclid."""
        r0, r1 = modulus, self % modulus
        s0, s1 = APoly.zero(self.fq), APoly.one(self.fq)
        while r1:
            quo, rem = divmod(r0, r1)
            r0, r1, s0, s1 = r1, rem, s1, s0 - quo * s1
        if r0.degree != 0:
            raise ZeroDivisionError("not invertible modulo the polynomial")
        # s0 * self = r0, a unit, modulo modulus
        return s0.scale(self.fq.inv(r0.lc()))

    def is_irreducible(self) -> bool:
        """Ben-Or's test: f of degree d is irreducible iff it has no factor
        of degree i <= d/2, that is iff gcd(f, x^(q^i) - x mod f) = 1 for
        every such i."""
        d = self.degree
        if d <= 0:
            return False
        if d > 1 and not self.coeffs[0]:  # divisible by x
            return False
        x = APoly.var(self.fq)
        xqi = x
        for _ in range(d // 2):
            xqi = xqi.powmod(self.fq.q, self)
            if poly_gcd(self, xqi - x).degree > 0:
                return False
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, APoly) and self.coeffs == other.coeffs and self.fq == other.fq

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def text(self, var: str = "T") -> str:
        if not self.coeffs:
            return "0"
        fq = self.fq
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            ct = fq.elem_text(c)
            wrapped = f"({ct})" if "+" in ct else ct
            if i == 0:
                terms.append(wrapped)
                continue
            v = var if i == 1 else f"{var}^{i}"
            terms.append(v if c == 1 else f"{wrapped}*{v}")
        return "+".join(terms)

    def __repr__(self) -> str:
        return self.text()


def _poly(fq: Fq, coeffs: tuple) -> APoly:
    """An APoly on a coefficient tuple that has no trailing zero."""
    p = object.__new__(APoly)
    p.fq = fq
    p.coeffs = coeffs
    return p


def poly_gcd(a: APoly, b: APoly) -> APoly:
    """Monic greatest common divisor."""
    while b:
        a, b = b, a % b
    return a.monic()


def squarefree_decomposition(f: APoly) -> list[tuple[APoly, int]]:
    """The pairs (g, i), ascending in i, of a nonzero f = c * prod g^i with
    every g monic, squarefree, of positive degree and coprime to the
    others (Yun's algorithm, as `gf_sqf_list` runs it in characteristic p).

    h = f / gcd(f, f') is the product of the primes whose multiplicity is
    prime to p; peeling gcds of h with the cofactor sorts them by
    multiplicity. What is left is a p-th power: its p-th root, a
    coefficient-wise c^(q/p) on the powers x^(p*i), goes round again with
    every multiplicity scaled by p."""
    if not f:
        raise ValueError("squarefree decomposition of the zero polynomial")
    fq = f.fq
    out = []
    scale = 1
    f = f.monic()
    while f.degree > 0:
        df = f.derivative()
        if df:
            g = poly_gcd(f, df)
            h = f.exact_div(g)
            i = 1
            while h.degree > 0:
                common = poly_gcd(g, h)
                part = h.exact_div(common)
                if part.degree > 0:
                    out.append((part, i * scale))
                g, h, i = g.exact_div(common), common, i + 1
            f = g
        # f is now a p-th power (its derivative vanishes)
        root = fq.q // fq.p
        f = APoly(fq, [fq.pow(c, root) for c in f.coeffs[:: fq.p]])
        scale *= fq.p
    return sorted(out, key=lambda gi: gi[1])


def monic_polys(fq: Fq, degree: int):
    """All monic polynomials of the given degree, in lexicographic order."""
    for tail in itertools.product(range(fq.q), repeat=degree):
        yield APoly(fq, list(tail) + [1])


def prime_divisors(f: APoly) -> list[APoly]:
    """Monic irreducible divisors of a nonzero polynomial, ascending by
    degree, then lexicographically.

    Trial division by every monic polynomial of degree up to half the
    remaining degree: a divisor found this way has no factor of smaller
    degree left, so it is prime, and so is whatever remains at the end."""
    out = []
    rest = f.monic()
    tried = 0
    d = 1
    while 2 * d <= rest.degree:
        tried += f.fq.q**d
        if tried > 10**6:
            raise TooLarge("factorization beyond desk scale")
        for p in monic_polys(f.fq, d):
            if 2 * d > rest.degree:
                break
            quo, rem = divmod(rest, p)
            if not rem:
                out.append(p)
            while not rem:
                rest = quo
                quo, rem = divmod(rest, p)
        d += 1
    if rest.degree > 0:
        out.append(rest)
    return out


def roots_in_k(tower, f: APoly) -> list[KElem]:
    """All roots of f in k, sorted by coefficient tuple (deterministic)."""
    return sorted((a for a in tower.elements() if not f.eval_in_k(a)), key=lambda a: a.coeffs)


def first_irreducible(fq: Fq, degree: int) -> APoly:
    """The first monic irreducible of the given degree in the order of
    `monic_polys`. Above degree 1 a candidate with f(0) = 0 is divisible
    by T, so the walk starts at constant term 1: the constant term is
    the most significant digit of that order."""
    if degree >= 1:
        for c0 in range(1 if degree > 1 else 0, fq.q):
            for tail in itertools.product(range(fq.q), repeat=degree - 1):
                f = APoly(fq, (c0,) + tail + (1,))
                if f.is_irreducible():
                    return f
    raise ValueError("no irreducible polynomial found")


def minimal_poly_over_fq(x: KElem) -> APoly:
    """Minimal polynomial over F_q of an element of k (monic).

    It is the first F_q-linear dependence among 1, x, ..., x^n: the
    null vector of the first free column of that n x (n+1) system, whose
    columns before it are independent."""
    t = x.tower
    from .linalg import nullspace

    pows = [t.one]
    for _ in range(t.n):
        pows.append(pows[-1] * x)
    rows = [(0, [p.coeffs[i] for p in pows]) for i in range(t.n)]
    return APoly(t.fq, nullspace(t.fq, rows, t.n + 1)[0])


# -- small dense matrices over APoly (rows of lists) --


def mat_identity(fq: Fq, n: int) -> list[list[APoly]]:
    one, zero = APoly.one(fq), APoly.zero(fq)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_solve(rows: list[list[APoly]], rhs: list[list[APoly]]):
    """Fraction-free Gauss-Jordan elimination (Bareiss) over A.

    Solves rows * x = d * rhs for an m x n matrix of full column rank
    and an m x k right-hand side, and returns (d, x) with x an n x k
    matrix over A. For square rows d = det(rows), so solving against the
    identity gives the adjugate. Columns of rows that are dependent give
    (0, None); an inconsistent right-hand side gives (d, None).

    Every entry stays a minor of the augmented matrix (Sylvester's
    identity), so each division by the previous pivot is exact.
    """
    m, n = len(rows), len(rows[0])
    aug = [list(r) + list(b) for r, b in zip(rows, rhs)]
    width = len(aug[0])
    prev = None  # the previous pivot; the first step divides by 1
    negate = False
    for c in range(n):
        piv = next((i for i in range(c, m) if aug[i][c]), None)
        if piv is None:
            return APoly.zero(rows[0][0].fq), None
        if piv != c:
            aug[c], aug[piv] = aug[piv], aug[c]
            negate = not negate
        prow = aug[c]
        p = prow[c]
        # rows above the pivot feed only x, so a bare determinant skips them
        for i in range(0 if width > n else c + 1, m):
            if i == c:
                continue
            row = aug[i]
            a = row[c]
            for j in range(c + 1, width):
                e = p * row[j]
                if a and prow[j]:
                    e = e - a * prow[j]
                row[j] = e if prev is None else e.exact_div(prev)
        prev = p
    if any(v for row in aug[n:] for v in row[n:]):
        return (-prev if negate else prev), None
    x = [row[n:] for row in aug[:n]]
    if negate:
        return -prev, [[-v for v in row] for row in x]
    return prev, x


def mat_det(rows: list[list[APoly]]) -> APoly:
    """Determinant, by the fraction-free kernel with an empty right-hand side."""
    return mat_solve(rows, [[] for _ in rows])[0]
