"""The ideal action I -> I * phi and kernel-ideal verdicts.

For a nonzero integral ideal I of E = End_k(phi), the left ideal
k{tau} I is principal with a monic generator u_I (a right gcd of skew
realizations of the HNF basis of I). Conjugation by u_I produces the
acted module. The annihilator J = k{tau} I cap E contains I, so it is
J = I + ker(E/I -> k{tau}/k{tau} u_I), a finite F_q-linear
divisibility condition on E/I. I is a kernel ideal exactly when that
kernel is zero, and then J = I is returned without a lattice;
otherwise an element of J \\ I is returned as a witness.
"""

from __future__ import annotations

from .apoly import APoly
from .errors import EmptyIdeal, InternalError
from .modules import DrinfeldModule
from .orders import AOrder, FracIdeal, endomorphism_ring, right_divisible_span
from .skew import SkewPoly, fq_combination, rgcd


def skew_realization(order: AOrder, coords: list[APoly]) -> SkewPoly:
    """The element of k{tau} with the given integral order coordinates:
    sum over j and a of c_(j,a) * phi_{T^a} * b_j, from the products the
    order keeps (`AOrder.skew_term`)."""
    if order.skew_basis is None or order.module is None:
        raise InternalError("order carries no skew realization")
    tower = order.module.tower
    terms = [
        (v, order.skew_term(j, a))
        for j, c in enumerate(coords)
        for a, v in enumerate(c.coeffs)
        if v
    ]
    return SkewPoly(tower, fq_combination(tower, terms))


class IdealActionResult:
    __slots__ = ("source", "ideal", "u", "image", "annihilator", "is_kernel", "witness")

    def __init__(
        self,
        source: DrinfeldModule,
        ideal: FracIdeal,
        u: SkewPoly,
        image: DrinfeldModule,
        annihilator: FracIdeal,
        is_kernel: bool,
        witness: list[APoly] | None,
    ):
        self.source = source
        self.ideal = ideal
        self.u = u
        self.image = image
        self.annihilator = annihilator
        self.is_kernel = is_kernel
        self.witness = witness


def act(phi: DrinfeldModule, ideal: FracIdeal) -> IdealActionResult:
    """Compute u_I, the acted module, and the kernel verdict.

    Fractional ideals are rescaled integral first; the class of the
    image is unaffected by principal rescaling.
    """
    order = ideal.order
    if order.module != phi:
        raise InternalError("ideal does not belong to an order of this module")
    integral = ideal.scaled_integral()
    gens = [skew_realization(order, list(col)) for col in integral.lattice.cols]
    if not any(gens):
        raise EmptyIdeal("zero ideal cannot act")
    u = rgcd(gens)
    prod = u * phi.phi_t
    psi_t, rem = prod.rdivmod(u)
    if rem:
        raise InternalError("conjugation by u_I left a remainder")
    # psi_T[0] = t^(q^v) for v the tau-valuation of u: a Frobenius
    # conjugate of t, so the characteristic prime carries over
    psi = DrinfeldModule.with_char_prime(phi.tower, psi_t, phi.char_prime)
    ann = _annihilator(order, integral, u, gens)
    kernel = ann == integral
    witness = None
    if not kernel:
        for col in ann.lattice.cols:
            if not integral.lattice.contains(list(col)):
                witness = list(col)
                break
        if witness is None:
            raise InternalError("annihilator exceeds ideal but no witness found")
    return IdealActionResult(phi, integral, u, psi, ann, kernel, witness)


def annihilator_ideal(order: AOrder, integral: FracIdeal, u: SkewPoly) -> FracIdeal:
    """J = {w in E : u_I right-divides w} = k{tau} I cap E, for u_I a
    right divisor of every element of the integral ideal I.

    J contains I, so J = I + ker(E/I -> k{tau}/k{tau} u_I): for d_j the
    diagonal of I's HNF, the T^a e_j with a < deg d_j are an F_q-basis
    of E/I, and the kernel is solved on their remainders by u_I
    (`right_divisible_span` over E's skew basis). An empty kernel (I is
    a kernel ideal) returns I itself; otherwise the lifted kernel vectors
    are re-spanned with I. InternalError when u_I does not right-divide a
    generator of I.
    """
    gens = [skew_realization(order, list(col)) for col in integral.lattice.cols]
    return _annihilator(order, integral, u, gens)


def _annihilator(
    order: AOrder, integral: FracIdeal, u: SkewPoly, gens: list[SkewPoly]
) -> FracIdeal:
    """`annihilator_ideal` on the skew realizations gens of I's HNF
    columns."""
    for g in gens:
        if g.rdivmod(u)[1]:
            raise InternalError("u_I does not right-divide a generator of the ideal")
    lat = right_divisible_span(order.module, order.skew_basis, u, integral.lattice.cols)
    return integral if lat is None else FracIdeal(order, lat)


def end_comparison(result: IdealActionResult) -> dict:
    """Compare O_I with End of the acted module, in power coordinates.

    pi is central, so conjugation by u_I fixes F(pi)-coordinates; the
    multiplicator ring embeds into the endomorphism ring of the image,
    with equality whenever the ideal is a kernel ideal.
    """
    end_image = endomorphism_ring(result.image)
    mult_ring = result.ideal.multiplicator_ring()
    contained = end_image.pi_lattice.contains_lattice(mult_ring.pi_lattice)
    equal = end_image.pi_lattice == mult_ring.pi_lattice
    if not contained:
        raise InternalError("multiplicator ring escaped the image's endomorphisms")
    if result.is_kernel and not equal:
        raise InternalError("kernel ideal without endomorphism-ring equality")
    return {
        "contained": contained,
        "equal": equal,
        "is_kernel": result.is_kernel,
        "multiplicator_ring": mult_ring,
        "end_of_image": end_image,
    }


def transport_ideal(ideal: FracIdeal, target: AOrder) -> FracIdeal:
    """Rewrite an ideal in the coordinates of another order of the same
    Frobenius field (power coordinates are conjugation-invariant), then
    close under the target order's multiplication."""
    if ideal.order.ext != target.ext:
        raise InternalError("transport across different Frobenius fields")
    pi_lat = ideal.order.ideal_lattice_to_pi(ideal.lattice)
    dens = target.basis_matrix[1]
    det, adj = target.basis_adjugate
    # inverse transform: coords = (adj/det) * (pi vector / (1/dens))
    inv_rows = [[adj[i][j] * dens for j in range(target.s)] for i in range(target.s)]
    back = pi_lat.transform(inv_rows, det)
    return FracIdeal.from_generators(target, [list(c) for c in back.cols], back.den)
