"""End(phi) by right divisibility over A[pi] (`end_pi_lattice`), against
the centralizer (`endomorphism_ring`), and the census that reads it."""

import random

import pytest

from conftest import _SPECS, get_tower, rand_kelem, tower_above_table_limit
from drinfeld import (
    ALattice,
    APoly,
    DrinfeldModule,
    NonCommutativeEndomorphisms,
    SkewPoly,
    act,
    census_isomorphism_classes,
    characteristic_roots,
    end_index_bound,
    end_pi_lattice,
    endomorphism_ring,
    lattice_index,
    minimal_frobenius_order,
    prime_divisors,
)
from drinfeld.apoly import mat_det
from drinfeld.census import end_order_summary


def _bound_oracle(ext) -> APoly:
    """prod l^(v_l(disc) // 2) over the primes l of disc(A[pi]), found by
    trial division."""
    s = ext.s
    disc = mat_det([[ext.power_sum(i + j) for j in range(s)] for i in range(s)])
    f = APoly.one(ext.fq)
    for ell in prime_divisors(disc):
        v, rest = 0, disc
        while not rest % ell:
            rest, v = rest.exact_div(ell), v + 1
        f = f * ell ** (v // 2)
    return f


def _check_module(phi: DrinfeldModule) -> tuple[bool, bool]:
    """Compare both End lattices of a commutative module; returns
    (compared, index over A[pi] nontrivial). Inseparable m has no bound."""
    ext = phi.profile().extension_field()
    f = end_index_bound(ext)
    if f is None:
        assert not ext.is_separable()
        return False, False
    assert f == _bound_oracle(ext)
    want = endomorphism_ring(phi).pi_lattice
    got = end_pi_lattice(phi, f)
    assert got == want, phi
    index = lattice_index(got, ALattice.identity(phi.tower.fq, phi.rank))
    assert not f % index  # f kills End / A[pi]
    return True, index.degree > 0


def _subfield_module(rng: random.Random, tower, rank: int) -> DrinfeldModule:
    """phi_T with coefficients in F_q: tau commutes with it, so End(phi)
    holds A[tau], which is larger than A[pi] when n > 1."""
    fq = tower.fq
    coeffs = [tower.embed_fq(rng.randrange(fq.q)) for _ in range(rank)]
    coeffs.append(tower.embed_fq(rng.randrange(1, fq.q)))
    return DrinfeldModule(tower, SkewPoly(tower, coeffs))


def _random_module(rng: random.Random, tower, rank: int) -> DrinfeldModule:
    coeffs = [rand_kelem(rng, tower) for _ in range(rank)]
    top = tower.zero
    while not top:
        top = rand_kelem(rng, tower)
    return DrinfeldModule(tower, SkewPoly(tower, coeffs + [top]))


@pytest.mark.parametrize("name", sorted(_SPECS))
def test_divisibility_lattice_matches_centralizer_on_every_tower(name):
    tower = get_tower(name)
    rng = random.Random(f"end-divisibility:{name}")
    compared = nontrivial = 0
    for rank in (1, 2, 3):
        for make in (_random_module, _subfield_module):
            for _ in range(3):
                phi = make(rng, tower, rank)
                if phi.profile().s != rank:
                    with pytest.raises(NonCommutativeEndomorphisms):
                        end_pi_lattice(phi, APoly.one(tower.fq))
                    continue
                done, bigger = _check_module(phi)
                compared += done
                nontrivial += bigger
    assert compared >= 6
    if tower.n > 1:
        assert nontrivial > 0


def test_divisibility_lattice_matches_centralizer_above_table_limit():
    # F_{2^13} multiplies KElem by KElem, without logarithm tables
    tower = tower_above_table_limit()
    rng = random.Random("end-divisibility:f8192")
    phis = [_random_module(rng, tower, 2), _subfield_module(rng, tower, 2)]
    phis.append(DrinfeldModule(tower, SkewPoly(tower, [tower.elem(c) for c in ([0, 1], [0, 0, 1], [1])])))
    outcomes = [_check_module(phi) for phi in phis if phi.profile().s == 2]
    assert len(outcomes) >= 2 and all(done for done, _ in outcomes)
    assert any(bigger for _, bigger in outcomes)


@pytest.mark.parametrize("name, rank, classes, nontrivial", [("f16", 2, 98, 30), ("f8", 3, 278, 88)])
def test_divisibility_lattice_matches_centralizer_on_census(name, rank, classes, nontrivial):
    # every commutative isomorphism class with separable m, by the bound
    # its isogeny class computes once
    tower = get_tower(name)
    compared = bigger = 0
    for _, t in characteristic_roots(tower):
        for grp in census_isomorphism_classes(tower, rank, t).values():
            if not grp.profile_summary["commutative"]:
                continue
            f = grp.index_bound
            for entry in grp.iso_classes:
                if f is None:
                    continue
                assert f == end_index_bound(entry.rep.profile().extension_field())
                done, more = _check_module(entry.rep)
                compared += done
                bigger += more
    assert (compared, bigger) == (classes, nontrivial)


@pytest.mark.parametrize(
    "name, rank, classes, nonminimal", [("f4", 2, 15, 6), ("f9", 2, 138, 36), ("f16", 2, 98, 30), ("f8", 3, 278, 88)]
)
def test_end_is_minimal_exactly_when_f_a_pi_is_a_kernel_ideal(name, rank, classes, nonminimal):
    """The bridge between End by divisibility and kernel ideals, through
    the public API: f End(phi) <= A[pi] for the index bound f, and it is
    the annihilator of the A[pi]-ideal f A[pi]. So `act` on f A[pi] is
    kernel exactly when End(phi) = A[pi], and its annihilator is End's
    pi-lattice scaled by f, on every commutative class with separable m."""
    tower = get_tower(name)
    seen = {True: 0, False: 0}
    for _, t in characteristic_roots(tower):
        for grp in census_isomorphism_classes(tower, rank, t).values():
            f = grp.index_bound
            if not grp.profile_summary["commutative"] or f is None:
                continue
            for entry in grp.iso_classes:
                rep = entry.rep
                ideal = minimal_frobenius_order(rep.profile(), rep).unit_ideal().scale(f)
                result = act(rep, ideal)
                assert result.is_kernel == grp.end(entry)["is_minimal"], rep
                assert result.annihilator.lattice == end_pi_lattice(rep, f).scale(f), rep
                seen[result.is_kernel] += 1
    assert (seen[True] + seen[False], seen[False]) == (classes, nonminimal)


def test_inseparable_class_falls_back_to_the_centralizer():
    tower = get_tower("f16")
    fallbacks = 0
    for _, t in characteristic_roots(tower):
        for grp in census_isomorphism_classes(tower, 2, t).values():
            if grp.iso_classes[0].rep.profile().extension_field().is_separable():
                assert grp.index_bound is not None
                continue
            assert grp.index_bound is None
            for entry in grp.iso_classes:
                order = endomorphism_ring(entry.rep)
                assert grp.end(entry) == end_order_summary(order)
                assert grp.end(entry)["gorenstein"] is None
                assert grp.end_orders[order.pi_lattice][0].skew_basis is not None
                fallbacks += 1
    assert fallbacks == 7

