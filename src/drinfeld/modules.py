"""Drinfeld modules over k and their elementary invariants.

A module is determined by the image of T, a skew polynomial whose
constant coefficient t generates the A-characteristic: the minimal
polynomial of t over F_q is the characteristic prime, of degree d
dividing n. The height is read off the tau-valuation of the image of
that prime, which is the procedure the worked examples follow.
phi_a is the F_q-combination sum_j a_j phi_{T^j} of the cached powers of
phi_T (`skew.fq_combination`), read lazily for the height. An isomorphism
c with c phi_T = psi_T c is one F_q solve of the degree-0 Hom system
(`skew.hom_system`).
"""

from __future__ import annotations

from functools import cached_property

from .apoly import APoly, minimal_poly_over_fq
from .errors import ContextError, InternalError
from .fields import FieldTower, KElem
from .linalg import echelon
from .skew import SkewPoly, fq_combination, hom_system


class DrinfeldModule:
    def __init__(self, tower: FieldTower, phi_t: SkewPoly):
        self._setup(tower, phi_t, None)

    @staticmethod
    def with_char_prime(tower: FieldTower, phi_t: SkewPoly, char_prime: APoly) -> DrinfeldModule:
        """The module phi_T with a characteristic prime known to be the
        minimal polynomial of phi_t[0] over F_q, as for every module of a
        census root or for an image under an isogeny, whose constant
        term is a Frobenius conjugate of the source's."""
        out = DrinfeldModule.__new__(DrinfeldModule)
        out._setup(tower, phi_t, char_prime)
        return out

    def _setup(self, tower: FieldTower, phi_t: SkewPoly, char_prime: APoly | None) -> None:
        # char_prime is passed in only when it is known to be the minimal
        # polynomial of phi_t[0] (`with_char_prime`)
        if phi_t.tower != tower:
            raise ContextError("phi_T does not live over the given tower")
        if phi_t.degree < 1:
            raise ValueError("phi_T must have positive tau-degree")
        self.tower = tower
        self.phi_t = phi_t
        self.rank = phi_t.degree
        self.t: KElem = phi_t[0]
        if char_prime is None:
            char_prime = minimal_poly_over_fq(self.t)
        self.char_prime: APoly = char_prime
        self.d = self.char_prime.degree
        self.n = tower.n
        if self.n % self.d:
            raise InternalError("degree of the characteristic prime must divide n")
        self._phi_t_powers: list[SkewPoly] = [SkewPoly.one(tower), phi_t]

    def phi_t_power(self, j: int) -> SkewPoly:
        while len(self._phi_t_powers) <= j:
            self._phi_t_powers.append(self._phi_t_powers[-1] * self.phi_t)
        return self._phi_t_powers[j]

    def _image_terms(self, a: APoly) -> list[tuple[int, SkewPoly]]:
        """The pairs (a_j, phi_{T^j}) whose F_q-combination is phi_a."""
        fq = self.tower.fq
        if a.fq is not fq and a.fq != fq:
            raise ContextError("polynomial over a different F_q than the module")
        return [(c, self.phi_t_power(j)) for j, c in enumerate(a.coeffs) if c]

    def __call__(self, a: APoly) -> SkewPoly:
        """The image of a under the ring homomorphism A -> k{tau}."""
        return SkewPoly(self.tower, fq_combination(self.tower, self._image_terms(a)))

    @cached_property
    def height(self) -> int:
        """tau-valuation of the image of the characteristic prime over d:
        its coefficients are read from tau^0 up to the first nonzero one."""
        coeffs = fq_combination(self.tower, self._image_terms(self.char_prime))
        v = next((i for i, c in enumerate(coeffs) if c), -1)
        if v < 0 or v % self.d:
            raise InternalError("tau-valuation of phi_p is not a multiple of d")
        return v // self.d

    def coeff_vector(self) -> tuple[KElem, ...]:
        """phi_T coefficients padded to length rank + 1."""
        return tuple(self.phi_t[i] for i in range(self.rank + 1))

    @cached_property
    def _profile(self):
        from .invariants import FrobeniusProfile

        return FrobeniusProfile(self)

    def profile(self):
        """Frobenius invariants of this module (computed once, cached)."""
        return self._profile

    @cached_property
    def end_ring(self):
        """End_k(phi) as an A-order (`orders.endomorphism_ring`), built once."""
        from .orders import build_endomorphism_ring

        return build_endomorphism_ring(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DrinfeldModule)
            and self.tower == other.tower
            and self.phi_t == other.phi_t
        )

    def __hash__(self) -> int:
        return hash(self.phi_t)

    def __repr__(self) -> str:
        return f"DrinfeldModule(phi_T = {self.phi_t.text()})"


def is_isogeny(u: SkewPoly, phi: DrinfeldModule, psi: DrinfeldModule) -> bool:
    """Nonzero u with u phi_T = psi_T u."""
    if phi.tower != psi.tower or u.tower != phi.tower:
        raise ContextError("isogeny test across different towers")
    if not u:
        return False
    return u * phi.phi_t == psi.phi_t * u


def find_isomorphism(phi: DrinfeldModule, psi: DrinfeldModule) -> KElem | None:
    """The first c of k^x, in the order of `FieldTower.elements`, with
    c phi_T c^{-1} = psi_T, or None.

    Such c and 0 are the kernel of `hom_system(phi_T, psi_T, 0)`, an F_q
    space in the n coordinates of c, solved by one `echelon` with the
    columns in reverse coordinate order. The last nonzero column of a
    kernel element is then free, so the null vector of the least free
    column, which is 1 there, is the lexicographically first nonzero
    solution. It is checked with `is_isogeny` before it is returned.
    """
    if phi.tower != psi.tower:
        raise ContextError("isomorphism test across different towers")
    if phi.rank != psi.rank:
        return None
    tower = phi.tower
    rows = [(0, vals[::-1]) for _, vals in hom_system(phi.phi_t, psi.phi_t, 0)]
    free, null_vector = echelon(tower.fq, rows, tower.n)
    if not free:
        return None
    c = tower.elem(null_vector(free[0])[::-1])
    if not is_isogeny(SkewPoly(tower, (c,)), phi, psi):
        raise InternalError("isomorphism solve does not conjugate phi_T to psi_T")
    return c


def same_isogeny_class(phi: DrinfeldModule, psi: DrinfeldModule) -> bool:
    """Isogeny classes are separated by the minimal polynomial of pi."""
    if phi.tower != psi.tower:
        raise ContextError("isogeny-class test across different towers")
    if phi.rank != psi.rank:
        return False
    return phi.profile().min_poly == psi.profile().min_poly
