"""The twisted polynomial ring k{tau} with tau * a = a^q * tau.

Degrees are additive (k is a field, so there are no zero divisors), and
the ring has a right division algorithm: every left ideal is principal.
Right gcds therefore compute generators of left ideals, which is how
isogenies u_I are produced. The right gcd returned here is normalized to
have leading coefficient one; ideal generators are only defined up to a
left unit, and fixing the monic representative makes results reproducible.
"""

from __future__ import annotations

from .errors import ContextError, EmptyIdeal
from .fields import FieldTower, KElem


class SkewPoly:
    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs=()):
        c = list(coeffs)
        while c and not c[-1]:
            c.pop()
        self.tower = tower
        self.coeffs = tuple(c)

    @staticmethod
    def zero(tower: FieldTower) -> SkewPoly:
        return SkewPoly(tower, ())

    @staticmethod
    def one(tower: FieldTower) -> SkewPoly:
        return SkewPoly(tower, (tower.one,))

    @staticmethod
    def tau_power(tower: FieldTower, j: int, coeff: KElem | None = None) -> SkewPoly:
        c = coeff if coeff is not None else tower.one
        return SkewPoly(tower, (tower.zero,) * j + (c,))

    @staticmethod
    def constant(c: KElem) -> SkewPoly:
        return SkewPoly(c.tower, (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lc(self) -> KElem:
        if not self.coeffs:
            raise ValueError("leading coefficient of zero")
        return self.coeffs[-1]

    def tau_valuation(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return -1

    def __getitem__(self, i: int) -> KElem:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.tower.zero

    def _check(self, other: SkewPoly) -> None:
        if self.tower is not other.tower and self.tower != other.tower:
            raise ContextError("skew polynomials over different towers")

    def __add__(self, other: SkewPoly) -> SkewPoly:
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return SkewPoly(self.tower, out)

    def __neg__(self) -> SkewPoly:
        return SkewPoly(self.tower, [-c for c in self.coeffs])

    def __sub__(self, other: SkewPoly) -> SkewPoly:
        self._check(other)
        a, b = self.coeffs, other.coeffs
        out = list(a) + [self.tower.zero] * (len(b) - len(a))
        for i, v in enumerate(b):
            out[i] = out[i] - v
        return SkewPoly(self.tower, out)

    def __mul__(self, other: SkewPoly) -> SkewPoly:
        self._check(other)
        t = self.tower
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return SkewPoly(t, ())
        out = [t.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj.frobq(i)
        return SkewPoly(t, out)

    def shift(self, m: int) -> SkewPoly:
        """Multiply by tau^m on the right: (a_i tau^i) tau^m = a_i tau^(i+m)."""
        return SkewPoly(self.tower, (self.tower.zero,) * m + self.coeffs)

    def left_scale(self, c: KElem) -> SkewPoly:
        """Multiply by a constant on the left: c * (a_i tau^i) = (c a_i) tau^i."""
        return SkewPoly(self.tower, [c * a for a in self.coeffs])

    def __pow__(self, m: int) -> SkewPoly:
        r = SkewPoly.one(self.tower)
        b = self
        while m:
            if m & 1:
                r = r * b
            b = b * b
            m >>= 1
        return r

    def rdivmod(self, other: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
        """Right division: self = quo * other + rem with deg rem < deg other."""
        self._check(other)
        if not other.coeffs:
            raise ZeroDivisionError("right division by zero")
        t = self.tower
        d = other.degree
        rem = list(self.coeffs)
        quo = [t.zero] * max(0, len(rem) - d)
        glc = other.lc()
        while len(rem) > d:
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) <= d:
                break
            shift = len(rem) - 1 - d
            c = rem[-1] / glc.frobq(shift)
            quo[shift] = quo[shift] + c
            # rem -= (c tau^shift) * other
            for j, bj in enumerate(other.coeffs):
                if bj:
                    rem[shift + j] = rem[shift + j] - c * bj.frobq(shift)
            rem.pop()
        return SkewPoly(t, quo), SkewPoly(t, rem)

    def right_divides(self, other: SkewPoly) -> bool:
        return not other.rdivmod(self)[1]

    def monic(self) -> SkewPoly:
        """Normalize by a left unit so the leading coefficient is one."""
        if not self.coeffs:
            return self
        return self.left_scale(self.lc().inv())

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewPoly)
            and self.coeffs == other.coeffs
            and self.tower == other.tower
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def text(self, sym: str = "t") -> str:
        if not self.coeffs:
            return "0"
        terms = []
        one = self.tower.one
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            ct = c.text(sym)
            wrapped = f"({ct})" if "+" in ct else ct
            if i == 0:
                terms.append(wrapped)
                continue
            v = "tau" if i == 1 else f"tau^{i}"
            terms.append(v if c == one else f"{wrapped}*{v}")
        return "+".join(terms)

    def __repr__(self) -> str:
        return self.text()


def rgcd(polys: list[SkewPoly]) -> SkewPoly:
    """Monic generator of the left ideal sum k{tau} * f_i."""
    nonzero = [f for f in polys if f]
    if not nonzero:
        raise EmptyIdeal("right gcd of the zero ideal")
    g = nonzero[0]
    for f in nonzero[1:]:
        a, b = g, f
        while b:
            a, b = b, a.rdivmod(b)[1]
        g = a
    return g.monic()


def rgcd_bezout(f: SkewPoly, g: SkewPoly) -> tuple[SkewPoly, SkewPoly, SkewPoly]:
    """Extended right Euclid: returns (d, a, b) with a*f + b*g = d monic."""
    if not f and not g:
        raise EmptyIdeal("right gcd of the zero ideal")
    t = f.tower
    r0, r1 = f, g
    a0, a1 = SkewPoly.one(t), SkewPoly.zero(t)
    b0, b1 = SkewPoly.zero(t), SkewPoly.one(t)
    while r1:
        q, r = r0.rdivmod(r1)
        r0, r1 = r1, r
        a0, a1 = a1, a0 - q * a1
        b0, b1 = b1, b0 - q * b1
    c = r0.lc().inv()
    return r0.left_scale(c), a0.left_scale(c), b0.left_scale(c)


def rgcd_certificates(polys: list[SkewPoly]) -> tuple[SkewPoly, list[SkewPoly]]:
    """Monic right gcd d of the list plus certificates c_i with
    sum c_i * f_i = d."""
    if not any(polys):
        raise EmptyIdeal("right gcd of the zero ideal")
    t = polys[0].tower
    g = SkewPoly.zero(t)
    certs = [SkewPoly.zero(t)] * len(polys)
    for idx, f in enumerate(polys):
        if not f:
            continue
        if not g:
            g = f
            certs[idx] = SkewPoly.one(t)
            continue
        d, a, b = rgcd_bezout(g, f)
        certs = [a * c for c in certs]
        certs[idx] = certs[idx] + b
        g = d
    c = g.lc().inv()
    return g.left_scale(c), [cr.left_scale(c) for cr in certs]
