"""The rank-3 module over F_16 whose endomorphism ring carries a
non-kernel ideal.

The script computes the endomorphism ring as an A-order, builds the
ideal I = (e2, e3), produces the isogeny u_I by right gcds, applies the
ideal action, and exhibits the annihilator witness (T+1)^2 showing
that I is strictly smaller than k{tau}I cap E.
"""

from drinfeld import (
    APoly,
    DrinfeldModule,
    FieldTower,
    FracIdeal,
    SkewPoly,
    act,
    coords_in_skew_basis,
    end_comparison,
    endomorphism_ring,
    is_gorenstein_at,
    lattice_index,
    minimal_frobenius_order,
)


def main() -> None:
    tower = FieldTower(2, 1, [0, 1], 4, [1, 1, 0, 0, 1])
    t = tower.gen()
    phi = DrinfeldModule(tower, SkewPoly(tower, [t, tower.zero, t**3, tower.one]))
    print(f"phi_T = {phi.phi_t.text()} over F_16, p = {phi.char_prime.text()}")
    print(f"m(x) = {phi.profile().min_poly_text()}")

    end = endomorphism_ring(phi)
    print(f"\nEnd_k(phi) has rank {end.s}; basis:")
    for b in end.skew_basis:
        print(f"   {b.text()}")
    minimal = minimal_frobenius_order(phi.profile(), phi)
    print(f"chi(E / A[pi]) = {lattice_index(end.pi_lattice, minimal.pi_lattice).text()}")

    tp1 = APoly(tower.fq, [1, 1])
    print(f"E Gorenstein at T+1: {is_gorenstein_at(end, tp1)}")

    e2 = SkewPoly(tower, [tower.one, tower.zero, tower.zero, tower.zero, tower.one])
    e3 = SkewPoly(
        tower,
        [t**3 + t**2 + t, tower.zero, t**3 + t**2 + tower.one, t**3 + t, t**3 + t**2, tower.one],
    )
    c2 = coords_in_skew_basis(phi, end.skew_basis, e2)
    c3 = coords_in_skew_basis(phi, end.skew_basis, e3)
    ideal = FracIdeal.from_generators(end, [c2, c3])
    print(f"\nI = (1+pi, (pi+1)^2/(T+1)) has norm {ideal.norm_poly().text()}")

    result = act(phi, ideal)
    print(f"u_I = {result.u.text()}")
    print(f"(I*phi)_T = {result.image.phi_t.text()}")
    print(f"kernel ideal: {result.is_kernel}")
    witness = result.witness
    print(f"witness in (k{{tau}}I cap E) \\ I: {[c.text() for c in witness]}")

    report = end_comparison(result)
    print(
        f"O_I inside End(I*phi): {report['contained']}; equality observed: {report['equal']}"
    )


if __name__ == "__main__":
    main()
