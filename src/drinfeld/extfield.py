"""The commutative field F[x]/(m(x)) generated by the Frobenius.

An element is a vector of s = deg(m) polynomials over A, its
coordinates in the power basis 1, x, ..., x^(s-1), over a denominator
that the caller keeps: orders hold their basis as A-columns over one
denominator (`AOrder.basis_matrix`). Since m is monic with
A-coefficients, products of integral vectors reduce without introducing
fractions (`mul_vecs`), and the traces of the power basis come from the
Newton recurrences (`power_sum`).
"""

from __future__ import annotations

from .apoly import APoly
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

