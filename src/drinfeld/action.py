"""The ideal action I -> I * phi and kernel-ideal verdicts.

For a nonzero integral ideal I of E = End_k(phi), the left ideal
k{tau} I is principal with a monic generator u_I (a right gcd of skew
realizations of the HNF basis of I). Conjugation by u_I produces the
acted module. The annihilator J = k{tau} I cap E is computed by a
finite F_q-linear divisibility condition modulo chi(E/I) E, and I is a
kernel ideal exactly when J = I; otherwise an element of J \\ I is
returned as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .apoly import APoly
from .errors import EmptyIdeal, InternalError
from .lattices import ALattice
from .modules import DrinfeldModule
from .orders import AOrder, FracIdeal, endomorphism_ring, right_divisible_combinations
from .skew import SkewPoly, rgcd


def skew_realization(order: AOrder, coords: list[APoly]) -> SkewPoly:
    """The element of k{tau} with the given integral order coordinates:
    sum over j and a of c_(j,a) * phi_{T^a} * b_j, from the products the
    order keeps (`AOrder.skew_term`)."""
    if order.skew_basis is None or order.module is None:
        raise InternalError("order carries no skew realization")
    tower = order.module.tower
    acc = SkewPoly.zero(tower)
    for j, c in enumerate(coords):
        for a, v in enumerate(c.coeffs):
            if v:
                acc = acc + order.skew_term(j, a).left_scale(tower.embed_fq(v))
    return acc


@dataclass
class IdealActionResult:
    source: DrinfeldModule
    ideal: FracIdeal
    u: SkewPoly
    image: DrinfeldModule
    annihilator: FracIdeal
    is_kernel: bool
    witness: list[APoly] | None


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
    ann = annihilator_ideal(order, integral, u)
    if not ann.lattice.contains_lattice(integral.lattice):
        raise InternalError("annihilator does not contain the ideal")
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
    """J = {w in E : u_I right-divides w} = k{tau} I cap E.

    The divisibility condition is F_q-linear and descends to E / chi E
    for chi = chi(E/I), which contains the ideal, so the computation is
    finite-dimensional; the result is re-spanned with chi E.
    """
    module = order.module
    if module is None or order.skew_basis is None:
        raise InternalError("order carries no skew realization")
    fq = order.fq
    s = order.s
    if u.degree == 0:
        # unit generator: the whole order annihilates
        return order.unit_ideal()
    chi = integral.norm_poly()
    degc = chi.degree
    gens = right_divisible_combinations(module, order.skew_basis, u, degc) if degc > 0 else []
    zero = APoly.zero(fq)
    one = APoly.one(fq)
    for j in range(s):
        v = [zero] * s
        v[j] = chi if degc > 0 else one
        gens.append(v)
    lat = ALattice.from_generators(fq, s, gens)
    return FracIdeal(order, lat)


def is_kernel_ideal(phi: DrinfeldModule, ideal: FracIdeal) -> tuple[bool, list[APoly] | None]:
    res = act(phi, ideal)
    return res.is_kernel, res.witness


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
