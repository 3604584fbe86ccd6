"""Frobenius invariants of a Drinfeld module.

The minimal polynomial m(x) of pi = tau^n over F is found by
degree-bounded linear algebra over F_q: one homogeneous system whose
columns are the phi_{T^j} tau^(n i) for i = 0, ..., r and
j <= ceil((r-i) n / r), in that order (at i = r only pi^r itself). Every
nonzero P with A-coefficients and P(pi) = 0 is a multiple of m in F[x],
so no dependence among the columns has x-degree below s, and m fits the
columns because its coefficients obey deg c_i <= ceil((s-i) n / r)
(Gekeler, "On finite Drinfeld modules", J. Algebra 1991). Hence the
first free column of the echelon is pi^s, and its null vector is m(x),
monic in x, whether s = r or s < r: one elimination, with no
factorization and no search over the divisors of r.

The same object read as a polynomial in T over F_q[pi] has T-degree
[Ftilde : K], and comparing ceil(n/(H d)) with [Ftilde : K]/d decides
whether the minimal order A[pi] is locally maximal at pi. The profile
checks m(pi) = 0 on its own, from the powers phi_{T^j} and not from the
solver's system.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate

from .apoly import APoly
from .errors import InternalError
from .extfield import ExtensionField
from .linalg import echelon
from .modules import DrinfeldModule
from .render import poly_in_x_text
from .skew import coefficient_system, fq_combination


def minpoly_frobenius(module: DrinfeldModule) -> list[APoly]:
    """Monic minimal polynomial of pi over F, as x-coefficients in A.

    Works for any module; commutativity of the endomorphism ring is not
    required.
    """
    fq = module.tower.fq
    n, r = module.n, module.rank
    bounds = [-((-(r - i) * n) // r) for i in range(r + 1)]
    # column starts[i] is pi^i, the first of block i
    starts = list(accumulate((b + 1 for b in bounds), initial=0))
    cols = [module.phi_t_power(j).shift(n * i) for i in range(r + 1) for j in range(bounds[i] + 1)]
    height = max(f.degree for f in cols) + 1
    free, null_vector = echelon(fq, coefficient_system(cols, height), starts[-1])
    if not free:
        raise InternalError("no annihilating polynomial found up to degree r")
    if free[0] not in starts:
        raise InternalError("the first dependence among the powers of pi is not monic in x")
    s = starts.index(free[0])
    m = null_vector(free[0])
    return [APoly(fq, m[starts[i] : starts[i + 1]]) for i in range(s + 1)]


def transpose_bivariate(coeffs: list[APoly]) -> list[APoly]:
    """Re-read sum c_i(T) x^i as a polynomial in T with F_q[x] coefficients.

    The operation is an involution: applying it twice recovers the input.
    """
    fq = coeffs[0].fq
    max_t = max((c.degree for c in coeffs if c), default=0)
    out = []
    for j in range(max_t + 1):
        out.append(APoly(fq, [coeffs[i][j] for i in range(len(coeffs))]))
    while out and not out[-1]:
        out.pop()
    return out


def solve_ramification_invariants(n: int, d: int, height: int, nk: int) -> set[tuple[int, int, int, int]]:
    """All positive integer tuples (e_K, e_F, f_F, f_K) compatible with the
    profile: e_K f_F = nk/d, e_F f_F = H nk / n, e_K H d = e_F n and
    f_K = f_F d. The set may be empty (inconsistent inputs) or contain
    more than one tuple (arithmetically underdetermined)."""
    out: set[tuple[int, int, int, int]] = set()
    if d <= 0 or n <= 0 or height <= 0 or nk <= 0 or nk % d:
        return out
    target = nk // d
    for e_k in range(1, target + 1):
        if target % e_k:
            continue
        f_f = target // e_k
        if (e_k * height * d) % n:
            continue
        e_f = e_k * height * d // n
        if e_f <= 0:
            continue
        if e_f * f_f * n != height * nk:
            continue
        out.add((e_k, e_f, f_f, f_f * d))
    return out


class FrobeniusProfile:
    """m(x), its T-side reading, and the local-maximality data."""

    def __init__(self, module: DrinfeldModule):
        self.module = module
        self.n = module.n
        self.r = module.rank
        self.d = module.d
        self.height = module.height
        self.min_poly = tuple(minpoly_frobenius(module))
        self.s = len(self.min_poly) - 1
        self.m_tilde = tuple(transpose_bivariate(list(self.min_poly)))
        self.nk = len(self.m_tilde) - 1
        self._validate()
        self.is_ordinary = self.height == 1
        self.lhs = -(-self.n // (self.height * self.d))
        self.rhs = self.nk // self.d
        if self.lhs > self.rhs:
            raise InternalError("local-maximality inequality violated")
        self.is_locally_maximal = self.lhs == self.rhs
        self.invariant_solutions = frozenset(
            solve_ramification_invariants(self.n, self.d, self.height, self.nk)
        )

    def _validate(self) -> None:
        mod = self.module
        # m(pi) = sum_(i, j) c_ij phi_{T^j} tau^(n i) = 0 in k{tau}
        terms = [
            (v, mod.phi_t_power(j).shift(mod.n * i))
            for i, c in enumerate(self.min_poly)
            for j, v in enumerate(c.coeffs)
            if v
        ]
        if any(fq_combination(mod.tower, terms)):
            raise InternalError("minimal polynomial does not annihilate pi")
        if self.r % self.s:
            raise InternalError("[Ftilde:F] does not divide the rank")
        if self.s * self.n != self.nk * self.r:
            raise InternalError("degree relation s*n = NK*r violated")
        if self.nk % self.d:
            raise InternalError("d does not divide [Ftilde:K]")
        if self.m_tilde[-1].degree != 0:
            raise InternalError("leading T-coefficient not in F_q^x")
        # constant coefficient m(0) is a unit times p^(NK/d)
        m0 = self.min_poly[0]
        p_pow = self.module.char_prime ** (self.nk // self.d)
        if m0.monic() != p_pow.monic():
            raise InternalError("m(0) is not a unit multiple of p^(NK/d)")
        for c in self.min_poly[1:-1]:
            if c.degree >= m0.degree:
                raise InternalError("m(0) must strictly dominate other degrees")

    @cached_property
    def _ext(self) -> ExtensionField:
        return ExtensionField(list(self.min_poly))

    def extension_field(self) -> ExtensionField:
        return self._ext

    @property
    def end_ring_commutative(self) -> bool:
        return self.s == self.r

    def corollary_checks(self) -> dict:
        """Which sufficient conditions for local maximality fire, and the
        ordinary/prime-field equivalence when the endomorphism ring is
        commutative."""
        fired = []
        if self.height * self.s <= self.r:
            fired.append("height_at_most_r_over_s")
        if self.d == self.n:
            fired.append("prime_field")
        report = {
            "fired": fired,
            "verdict": self.is_locally_maximal,
            "commutative": self.end_ring_commutative,
        }
        if fired and not self.is_locally_maximal:
            raise InternalError("sufficient condition fired but verdict is negative")
        if self.end_ring_commutative:
            expected = self.height == 1 or self.d == self.n
            report["ordinary_or_prime_field"] = expected
            if expected != self.is_locally_maximal:
                raise InternalError(
                    "commutative case: verdict disagrees with ordinary/prime-field test"
                )
        return report

    def min_poly_text(self) -> str:
        return poly_in_x_text(list(self.min_poly), var="x", coeff_var="T")

    def m_tilde_text(self) -> str:
        """Rendered in x with F_q[pi] coefficients, as the examples print it."""
        return poly_in_x_text(list(self.m_tilde), var="x", coeff_var="pi")

    def __repr__(self) -> str:
        return (
            f"FrobeniusProfile(m = {self.min_poly_text()}, s={self.s}, "
            f"NK={self.nk}, H={self.height}, d={self.d})"
        )
