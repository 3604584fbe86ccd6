"""The End build against the full-vector greedy it replaced.

`orders.build_endomorphism_ring` reads the basis off the free columns of
one elimination of the commutator system (`hom_system(phi_T, phi_T, cap)`)
and the coordinates of pi^i off the echelon of the A-multiples.
`conftest.ref_end_ring` is the greedy before it: every null vector reduced in a `TrailingEchelon` over all
coordinates, and `ref_coords_in_skew_basis` for pi^i. The skew basis and
the basis matrix must be identical, on random modules of rank 2-4 over every
test tower (F_16 over F_4 and F_{2^13}, without log tables, included) and
on every class representative with commutative End of the rank-2
censuses over F_4, F_8 and F_16 (inseparable m(x) included) and of the
rank-3 census over F_8.

`coords_in_skew_basis` reads the coordinates of any endomorphism off the
same echelon; `conftest.ref_coords_in_skew_basis`, the F_q solve it
replaced, is its oracle on members and non-members.
"""

import random

import pytest

from drinfeld import DrinfeldModule, InternalError, SkewPoly, coords_in_skew_basis, skew_realization
from drinfeld.census import census_isomorphism_classes, characteristic_roots
from drinfeld.orders import build_endomorphism_ring, minimal_frobenius_order

from conftest import (
    _SPECS,
    get_tower,
    rand_apoly,
    rand_kelem,
    rand_skew,
    ref_coords_in_skew_basis,
    ref_end_ring,
    tower_above_table_limit,
)


def assert_matches_greedy(phi):
    end = build_endomorphism_ring(phi)
    basis, matrix = ref_end_ring(phi)
    assert end.skew_basis == basis
    assert end.basis_matrix == matrix
    for j, b in enumerate(end.skew_basis):
        assert end.skew_term(j, 1) == phi.phi_t * b
    return end


def _modules_of_rank(rng, tower, rank, count):
    """count modules of the given rank with s = rank and t != 0."""
    out = []
    while len(out) < count:
        coeffs = [rand_kelem(rng, tower) for _ in range(rank + 1)]
        if not coeffs[0] or not coeffs[-1]:
            continue
        phi = DrinfeldModule(tower, SkewPoly(tower, coeffs))
        if phi.profile().s == rank:
            out.append(phi)
    return out


@pytest.mark.parametrize("name", sorted(_SPECS) + ["f8192"])
def test_end_matches_greedy_on_towers(name):
    tower = tower_above_table_limit() if name == "f8192" else get_tower(name)
    rng = random.Random(f"end-build-{name}")
    count = 1 if name == "f8192" else 3
    for rank in (2, 3, 4):
        for phi in _modules_of_rank(rng, tower, rank, count):
            assert_matches_greedy(phi)


@pytest.mark.parametrize("name, rank", [("f4", 2), ("f8", 2), ("f16", 2), ("f8", 3)])
def test_end_matches_greedy_on_census_representatives(name, rank):
    tower = get_tower(name)
    checked = inseparable = above_minimal = 0
    for _, t in characteristic_roots(tower):
        for grp in census_isomorphism_classes(tower, rank, t).values():
            for entry in grp.iso_classes:
                prof = entry.rep.profile()
                if prof.s != rank:
                    continue
                end = assert_matches_greedy(entry.rep)
                checked += 1
                inseparable += not prof.extension_field().is_separable()
                above_minimal += end.basis_matrix[1].degree > 0
    # End != A[pi] occurs in every census, an inseparable m(x) at rank 2
    assert checked and above_minimal
    assert inseparable or rank == 3


def _coords_cases(rng, phi, end):
    """(element, is a member) pairs: 0, pi^i, skew realizations of random
    coordinates, each also perturbed by one random tau^d term, and random
    skew polynomials, all of degree at most the cap n * s."""
    tower, fq = phi.tower, phi.tower.fq
    cap = phi.n * end.s
    cases = [(SkewPoly.zero(tower), True)]
    cases += [(SkewPoly.tau_power(tower, phi.n * i), True) for i in range(end.s)]
    for _ in range(4):
        coords = [rand_apoly(rng, fq, (cap - b.degree) // phi.rank) for b in end.skew_basis]
        u = skew_realization(end, coords)
        cases.append((u, True))
        d = rng.randrange(cap + 1)
        nudge = SkewPoly(tower, [tower.zero] * d + [rand_kelem(rng, tower) or tower.one])
        cases.append((u + nudge, None))
    cases += [(rand_skew(rng, tower, cap), None) for _ in range(4)]
    return cases


@pytest.mark.parametrize("name", sorted(_SPECS) + ["f8192"])
def test_coords_in_skew_basis_matches_the_solve(name):
    tower = tower_above_table_limit() if name == "f8192" else get_tower(name)
    rng = random.Random(f"end-coords-{name}")
    members = others = 0
    for rank in (2, 3, 4):
        for phi in _modules_of_rank(rng, tower, rank, 1 if name == "f8192" else 2):
            end = build_endomorphism_ring(phi)
            for u, member in _coords_cases(rng, phi, end):
                got = coords_in_skew_basis(end, u)
                assert got == ref_coords_in_skew_basis(phi, end.skew_basis, u)
                if member:
                    assert got is not None and skew_realization(end, got) == u
                members += got is not None
                others += got is None
    # over k = F_q (n = 1) k{tau} is commutative: every element is a member
    assert members and (others or tower.n == 1)


def test_coords_in_skew_basis_rejects_past_the_cap_and_other_orders(rank3_example):
    phi = rank3_example
    end = build_endomorphism_ring(phi)
    past = SkewPoly.tau_power(phi.tower, phi.n * end.s + 1)
    with pytest.raises(InternalError, match="cap"):
        coords_in_skew_basis(end, past)
    with pytest.raises(InternalError, match="cap"):
        ref_coords_in_skew_basis(phi, end.skew_basis, past)
    minimal = minimal_frobenius_order(phi.profile(), phi)
    with pytest.raises(InternalError, match="centralizer"):
        coords_in_skew_basis(minimal, SkewPoly.one(phi.tower))
