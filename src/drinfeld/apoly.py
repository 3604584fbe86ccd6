"""The commutative substrate A = F_q[T] and its fraction field F.

APoly stores coefficient tuples over F_q, little-endian in T, with no
trailing zeros (the zero polynomial is the empty tuple). RatFunc is a
reduced fraction of two APoly with monic denominator; it is the scalar
type for every computation that leaves A.

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
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.fq = fq
        self.coeffs = tuple(c)

    # -- constructors --

    @staticmethod
    def zero(fq: Fq) -> APoly:
        return APoly(fq, ())

    @staticmethod
    def one(fq: Fq) -> APoly:
        return APoly(fq, (1,))

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

    def __add__(self, other: APoly) -> APoly:
        fq = self.fq
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = fq.add(out[i], v)
        return APoly(fq, out)

    def __neg__(self) -> APoly:
        return APoly(self.fq, [self.fq.neg(v) for v in self.coeffs])

    def __sub__(self, other: APoly) -> APoly:
        return self + (-other)

    def __mul__(self, other: APoly) -> APoly:
        fq = self.fq
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return APoly(fq, ())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = fq.add(out[i + j], fq.mul(ai, bj))
        return APoly(fq, out)

    def scale(self, c: int) -> APoly:
        if c == 0:
            return APoly(self.fq, ())
        return APoly(self.fq, [self.fq.mul(c, v) for v in self.coeffs])

    def shift(self, j: int) -> APoly:
        """Multiply by T^j."""
        if not self.coeffs:
            return self
        return APoly(self.fq, (0,) * j + self.coeffs)

    def __divmod__(self, other: APoly) -> tuple[APoly, APoly]:
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        fq = self.fq
        rem = list(self.coeffs)
        d = other.degree
        quo = [0] * max(0, len(rem) - d)
        lead_inv = fq.inv(other.lc())
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                c = fq.mul(c, lead_inv)
                quo[i - d] = c
                for j, bj in enumerate(other.coeffs):
                    if bj:
                        rem[i - d + j] = fq.sub(rem[i - d + j], fq.mul(c, bj))
        return APoly(fq, quo), APoly(fq, rem)

    def __floordiv__(self, other: APoly) -> APoly:
        return divmod(self, other)[0]

    def __mod__(self, other: APoly) -> APoly:
        return divmod(self, other)[1]

    def exact_div(self, other: APoly) -> APoly:
        q, r = divmod(self, other)
        if r:
            raise ValueError("division is not exact")
        return q

    def __pow__(self, m: int) -> APoly:
        r = APoly.one(self.fq)
        b = self
        while m:
            if m & 1:
                r = r * b
            b = b * b
            m >>= 1
        return r

    def powmod(self, m: int, modulus: APoly) -> APoly:
        """Modular exponentiation self^m mod modulus."""
        if not modulus:
            raise ZeroDivisionError("reduction modulo the zero polynomial")
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
        return self.scale(self.fq.inv(self.lc()))

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


def poly_gcd(a: APoly, b: APoly) -> APoly:
    """Monic greatest common divisor."""
    while b:
        a, b = b, a % b
    return a.monic()


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
    """The first monic irreducible of the given degree in enumeration order."""
    for f in monic_polys(fq, degree):
        if f.is_irreducible():
            return f
    raise ValueError("no irreducible polynomial found")


def minimal_poly_over_fq(x: KElem) -> APoly:
    """Minimal polynomial over F_q of an element of k (monic)."""
    t = x.tower
    fq = t.fq
    # first F_q-linear dependence among 1, x, x^2, ...
    from .linalg import solve_linear

    pows = [t.one]
    while True:
        d = len(pows)
        rows = [[pows[j].coeffs[i] for j in range(d)] for i in range(t.n)]
        rhs = [fq.neg((pows[-1] * x).coeffs[i]) for i in range(t.n)]
        sol, _ = solve_linear(fq, rows, rhs)
        if sol is not None:
            return APoly(fq, sol + [1])
        pows.append(pows[-1] * x)


class RatFunc:
    """A reduced element of F = F_q(T) with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: APoly, den: APoly | None = None):
        if den is None:
            den = APoly.one(num.fq)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        else:
            den = APoly.one(num.fq)
        if not den.is_monic():
            c = num.fq.inv(den.lc())
            num = num.scale(c)
            den = den.scale(c)
        self.num = num
        self.den = den

    def __mul__(self, other: RatFunc) -> RatFunc:
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RatFunc) -> RatFunc:
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_integral(self) -> bool:
        return self.den.degree == 0

    def to_apoly(self) -> APoly:
        if not self.is_integral():
            raise ValueError(f"{self} is not integral")
        return self.num

    def monic_normalized(self) -> RatFunc:
        """Scale by a unit so the numerator is monic (for index values)."""
        if not self.num:
            return self
        c = self.num.fq.inv(self.num.lc())
        return RatFunc(self.num.scale(c), self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def text(self, var: str = "T") -> str:
        if self.den.degree == 0:
            return self.num.text(var)
        return f"({self.num.text(var)})/({self.den.text(var)})"

    def __repr__(self) -> str:
        return self.text()


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
