"""Frobenius invariants of a Drinfeld module.

The minimal polynomial m(x) of pi = tau^n over F is found by
degree-bounded linear algebra over F_q. For a degree s' dividing the rank
r, the system

    pi^{s'} + sum_{i<s'} phi_{c_i} pi^i = 0,  deg c_i <= ceil((s'-i) n / r),

has the phi_{T^j} tau^{n i} as columns. It is solved for s' = r first. If
the true degree s is smaller, m itself is a nonzero solution of the
homogeneous degree-r system, because its coefficient bounds
ceil((s-i) n / r) are at most ceil((r-i) n / r). So a unique solution
certifies s = r, and it is m(x): one solve when End is commutative, with
no separate factorization. Only a non-unique answer goes on to the proper
divisors of r in ascending order, where the first solvable degree wins.

The same object read as a polynomial in T over F_q[pi] has T-degree
[Ftilde : K], and comparing ceil(n/(H d)) with [Ftilde : K]/d decides
whether the minimal order A[pi] is locally maximal at pi. The profile
checks m(pi) = 0 on its own, from the powers phi_{T^j} and not from the
solver's system.
"""

from __future__ import annotations

from functools import cached_property

from .apoly import APoly
from .errors import InternalError
from .extfield import ExtensionField
from .linalg import solve_linear
from .modules import DrinfeldModule
from .render import poly_in_x_text
from .skew import coefficient_system, fq_combination


def _annihilator(module: DrinfeldModule, s: int):
    """The solution of pi^s + sum_{i<s} phi_{c_i} pi^i = 0 in polynomials
    c_i with deg c_i <= ceil((s-i) n / r), as (c_0, ..., c_{s-1}, 1) or
    None when there is none, and the nullspace basis of the system."""
    tower = module.tower
    fq = tower.fq
    n, r = module.n, module.rank
    bounds = [-((-(s - i) * n) // r) for i in range(s)]
    cols = [module.phi_t_power(j).shift(n * i) for i in range(s) for j in range(bounds[i] + 1)]
    # r * bounds[i] + n * i >= n * s, so the columns reach the degree of pi^s
    height = max(f.degree for f in cols) + 1
    # right-hand side: minus the coefficients of pi^s = tau^(n s)
    rhs = [0] * (height * tower.n)
    rhs[n * s * tower.n] = fq.neg(1)
    sol, null = solve_linear(fq, coefficient_system(cols, height), rhs, len(cols))
    if sol is None:
        return None, null
    coeffs = []
    pos = 0
    for b in bounds:
        coeffs.append(APoly(fq, sol[pos : pos + b + 1]))
        pos += b + 1
    coeffs.append(APoly.one(fq))
    return coeffs, null


def minpoly_frobenius(module: DrinfeldModule) -> list[APoly]:
    """Monic minimal polynomial of pi over F, as x-coefficients in A.

    Works for any module; commutativity of the endomorphism ring is not
    required.
    """
    r = module.rank
    coeffs, null = _annihilator(module, r)
    if coeffs is None:
        # x^(r-s) m(x) solves the degree-r system whenever m does
        raise InternalError("no annihilating polynomial found up to degree r")
    if not null:
        return coeffs
    for s in range(1, r):
        if r % s == 0:
            coeffs, null = _annihilator(module, s)
            if coeffs is not None:
                break
    if coeffs is None or null:
        raise InternalError("minimal polynomial solution is not unique")
    return coeffs


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
