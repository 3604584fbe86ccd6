"""The commutative field F[x]/(m(x)) generated by the Frobenius.

Elements are vectors of s = deg(m) polynomials over A (coordinates in
the power basis 1, x, ..., x^(s-1)) over a single common monic
denominator, kept reduced. Since m is monic with A-coefficients,
products reduce without introducing fractions; inverses come from the
fraction-free kernel `mat_solve` applied to the multiplication matrix,
whose determinant (the norm) is the denominator.
"""

from __future__ import annotations

from .apoly import APoly, RatFunc, mat_det, mat_solve, poly_gcd
from .fields import Fq


class ExtensionField:
    """F[x]/(m(x)) for a monic polynomial m over A of degree s."""

    def __init__(self, modulus: list[APoly]):
        if not modulus or not modulus[-1].is_monic() or modulus[-1].degree != 0:
            raise ValueError("modulus must be monic with constant leading coefficient")
        self.mod = tuple(modulus)
        self.s = len(modulus) - 1
        self.fq: Fq = modulus[0].fq
        self._power_sums: list[APoly] = []

    def zero(self) -> ExtElem:
        return ExtElem(self, [APoly.zero(self.fq)] * self.s)

    def one(self) -> ExtElem:
        nums = [APoly.zero(self.fq)] * self.s
        nums[0] = APoly.one(self.fq)
        return ExtElem(self, nums)

    def gen(self) -> ExtElem:
        """The residue of x (the Frobenius, in applications)."""
        nums = [APoly.zero(self.fq)] * self.s
        if self.s == 1:
            return ExtElem(self, [-self.mod[0]])
        nums[1] = APoly.one(self.fq)
        return ExtElem(self, nums)

    def elem(self, nums, den: APoly | None = None) -> ExtElem:
        return ExtElem(self, list(nums), den)

    def reduce_vec(self, vec: list[APoly]) -> list[APoly]:
        """Reduce an x-polynomial of any degree modulo m (exact, m monic)."""
        out = list(vec)
        s = self.s
        for i in range(len(out) - 1, s - 1, -1):
            c = out[i]
            if c:
                out[i] = APoly.zero(self.fq)
                for j in range(s):
                    out[i - s + j] = out[i - s + j] - c * self.mod[j]
        return out[:s] + [APoly.zero(self.fq)] * max(0, s - len(out))

    def mul_vecs(self, a: list[APoly], b: list[APoly]) -> list[APoly]:
        prod = [APoly.zero(self.fq)] * (2 * self.s - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] = prod[i + j] + ai * bj
        return self.reduce_vec(prod)

    def mult_matrix(self, nums: list[APoly]) -> list[list[APoly]]:
        """Matrix of multiplication by the (integral) vector, power basis."""
        cols = []
        cur = list(nums)
        for j in range(self.s):
            cols.append(list(cur))
            if j + 1 < self.s:
                cur = self.reduce_vec([APoly.zero(self.fq)] + cur)
        return [[cols[j][i] for j in range(self.s)] for i in range(self.s)]

    def power_sum(self, k: int) -> APoly:
        """Power sums of the roots of m via the Newton recurrences."""
        fq = self.fq
        ps = self._power_sums
        if not ps:
            ps.append(APoly.const(fq, self.s % fq.p))
        s = self.s
        while len(ps) <= k:
            j = len(ps)
            acc = APoly.zero(fq)
            for i in range(1, min(j - 1, s) + 1):
                acc = acc + self.mod[s - i] * ps[j - i]
            if j <= s:
                acc = acc + self.mod[s - j].scale(j % fq.p)
            ps.append(-acc)
        return ps[k]

    def is_separable(self) -> bool:
        # m is irreducible, so it is separable iff m' != 0, i.e. iff some
        # coefficient m_i with p not dividing i is nonzero
        p = self.fq.p
        return any(c for i, c in enumerate(self.mod) if i % p)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtensionField) and self.mod == other.mod

    def __hash__(self) -> int:
        return hash(self.mod)

    def __repr__(self) -> str:
        from .render import poly_in_x_text

        return f"ExtensionField({poly_in_x_text(list(self.mod))})"


class ExtElem:
    """A reduced element of an ExtensionField."""

    __slots__ = ("ext", "nums", "den")

    def __init__(self, ext: ExtensionField, nums: list[APoly], den: APoly | None = None):
        fq = ext.fq
        if den is None:
            den = APoly.one(fq)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if any(nums):
            g = den
            for v in nums:
                if v:
                    g = poly_gcd(g, v)
            if g.degree > 0:
                nums = [v.exact_div(g) if v else v for v in nums]
                den = den.exact_div(g)
        else:
            den = APoly.one(fq)
        if not den.is_monic():
            u = fq.inv(den.lc())
            nums = [v.scale(u) for v in nums]
            den = den.scale(u)
        self.ext = ext
        self.nums = tuple(nums)
        self.den = den

    def __add__(self, other: ExtElem) -> ExtElem:
        nums = [a * other.den + b * self.den for a, b in zip(self.nums, other.nums)]
        return ExtElem(self.ext, nums, self.den * other.den)

    def __neg__(self) -> ExtElem:
        return ExtElem(self.ext, [-a for a in self.nums], self.den)

    def __sub__(self, other: ExtElem) -> ExtElem:
        return self + (-other)

    def __mul__(self, other: ExtElem) -> ExtElem:
        nums = self.ext.mul_vecs(list(self.nums), list(other.nums))
        return ExtElem(self.ext, nums, self.den * other.den)

    def inv(self) -> ExtElem:
        if not self:
            raise ZeroDivisionError("inversion of zero")
        zero, one = APoly.zero(self.ext.fq), APoly.one(self.ext.fq)
        e0 = [[one]] + [[zero]] * (self.ext.s - 1)
        det, col = mat_solve(self.ext.mult_matrix(list(self.nums)), e0)
        if col is None:
            raise ZeroDivisionError("element is a zero divisor")
        return ExtElem(self.ext, [row[0] * self.den for row in col], det)

    def __truediv__(self, other: ExtElem) -> ExtElem:
        return self * other.inv()

    def __pow__(self, m: int) -> ExtElem:
        if m < 0:
            return self.inv() ** (-m)
        r = self.ext.one()
        b = self
        while m:
            if m & 1:
                r = r * b
            b = b * b
            m >>= 1
        return r

    def norm(self) -> RatFunc:
        """Determinant of the multiplication matrix (multiplicative)."""
        det = mat_det(self.ext.mult_matrix(list(self.nums)))
        return RatFunc(det, self.den ** self.ext.s)

    def trace(self) -> RatFunc:
        acc = APoly.zero(self.ext.fq)
        for i, v in enumerate(self.nums):
            if v:
                acc = acc + v * self.ext.power_sum(i)
        return RatFunc(acc, self.den)

    def __bool__(self) -> bool:
        return any(self.nums)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtElem)
            and self.nums == other.nums
            and self.den == other.den
            and self.ext == other.ext
        )

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        from .render import poly_in_x_text

        body = poly_in_x_text(list(self.nums), var="pi")
        if self.den.degree == 0:
            return body
        return f"({body})/({self.den.text()})"

