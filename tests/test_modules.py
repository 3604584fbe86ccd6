import itertools
import random
from collections import Counter

import pytest

from drinfeld import (
    APoly,
    ContextError,
    DrinfeldModule,
    SkewPoly,
    census_isomorphism_classes,
    characteristic_roots,
    find_isomorphism,
    is_isogeny,
    roots_in_k,
    same_isogeny_class,
)
from drinfeld.linalg import echelon
from drinfeld.skew import hom_system

from conftest import (
    _SPECS,
    get_tower,
    rand_kelem,
    rand_module,
    rand_unit,
    search_isomorphism,
    tower_above_table_limit,
    twist,
)


def test_eval_at_T_is_phi_T(rank3_example):
    phi = rank3_example
    assert phi(APoly.var(phi.tower.fq)) == phi.phi_t


def test_eval_at_char_prime_f729():
    f729 = get_tower("f729")
    prime = APoly(f729.fq, [2, 1, 1])
    t = roots_in_k(f729, prime)[0]
    phi = DrinfeldModule(f729, SkewPoly(f729, [t, f729.zero, f729.zero, f729.zero, f729.one]))
    img = phi(prime)
    two = f729.embed_fq(2)
    expected = SkewPoly(
        f729, [f729.zero] * 4 + [two * t + f729.one] + [f729.zero] * 3 + [f729.one]
    )
    assert img == expected


def test_eval_at_t_plus_one_squared(rank3_example):
    phi = rank3_example
    tower = phi.tower
    t = tower.gen()
    tp1 = APoly(tower.fq, [1, 1])
    expected = SkewPoly(
        tower,
        [t**2 + tower.one, tower.zero, t**3, t**2 + t + tower.one, tower.one, t, tower.one],
    )
    assert phi(tp1**2) == expected


def test_homomorphism_property():
    rng = random.Random(73)
    tower = get_tower("f4")
    for _ in range(40):
        phi = rand_module(rng, tower, max_rank=2)
        a = APoly(tower.fq, [rng.randrange(2) for _ in range(3)])
        b = APoly(tower.fq, [rng.randrange(2) for _ in range(3)])
        assert phi(a * b) == phi(a) * phi(b)
        assert phi(a + b) == phi(a) + phi(b)
        if a:
            assert phi(a).degree == phi.rank * a.degree


def test_heights():
    f8 = get_tower("f8")
    phi = DrinfeldModule(f8, SkewPoly.tau_power(f8, 2))
    assert phi.height == 2 and phi.char_prime == APoly.var(f8.fq)

    f81 = get_tower("f81")
    prime = APoly(f81.fq, [2, 1, 1])
    t = roots_in_k(f81, prime)[0]
    ordinary = DrinfeldModule(f81, SkewPoly(f81, [t, f81.zero, f81.one]))
    assert ordinary.height == 1 and ordinary.profile().is_ordinary

    f38 = get_tower("f729")  # n=6 module with H=2
    t6 = roots_in_k(f38, APoly(f38.fq, [2, 1, 1]))[0]
    phi6 = DrinfeldModule(
        f38, SkewPoly(f38, [t6, f38.one, f38.embed_fq(2) * t6 + f38.one])
    )
    assert phi6.height == 2


def test_height_valuation_divisible_by_d():
    rng = random.Random(79)
    for name in ("f4", "f9", "f16"):
        tower = get_tower(name)
        for _ in range(30):
            phi = rand_module(rng, tower, max_rank=2)
            img = phi(phi.char_prime)
            assert img.tau_valuation() % phi.d == 0
            assert 1 <= phi.height <= phi.rank


def test_conjugation_coefficient_law():
    rng = random.Random(83)
    tower = get_tower("f9")
    for _ in range(40):
        phi = rand_module(rng, tower, max_rank=3)
        while True:
            c = rand_kelem(rng, tower)
            if c:
                break
        psi = twist(phi, c)
        for i in range(phi.rank + 1):
            assert psi.phi_t[i] == c ** (1 - tower.q**i) * phi.phi_t[i]
        assert is_isogeny(SkewPoly(tower, (c,)), phi, psi)


def test_twist_carries_the_characteristic_prime():
    rng = random.Random(84)
    tower = get_tower("f16")
    for _ in range(10):
        phi = rand_module(rng, tower, max_rank=3)
        psi = twist(phi, rand_kelem(rng, tower) or tower.one)
        assert psi.char_prime is phi.char_prime
        fresh = DrinfeldModule(tower, psi.phi_t)
        assert (psi.char_prime, psi.d, psi.rank, psi.t) == (
            fresh.char_prime,
            fresh.d,
            fresh.rank,
            fresh.t,
        )
        assert psi.height == fresh.height


def test_isogeny_trivials(rank3_example):
    phi = rank3_example
    assert is_isogeny(SkewPoly.one(phi.tower), phi, phi)
    assert is_isogeny(SkewPoly.tau_power(phi.tower, phi.n), phi, phi)
    assert not is_isogeny(SkewPoly.zero(phi.tower), phi, phi)


def test_isomorphism_search():
    rng = random.Random(89)
    tower = get_tower("f9")
    phi = rand_module(rng, tower, max_rank=2)
    assert find_isomorphism(phi, phi) == tower.one
    while True:
        c = rand_kelem(rng, tower)
        if c:
            break
    psi = twist(phi, c)
    w = find_isomorphism(phi, psi)
    assert w is not None
    assert twist(phi, w).phi_t == psi.phi_t


def test_isomorphism_rejects_outside_twist_orbit():
    # rank-2 modules g*tau^2 over F_27: the twist orbit of the leading
    # coefficient is {c^(1-q^2)}, a proper subgroup of k^x
    tower = get_tower("f27")
    orbit = {c ** (1 - tower.q**2) for c in tower.elements() if c}
    outside = [lam for lam in tower.elements() if lam and lam not in orbit]
    assert outside, "test requires a non-residue"
    phi = DrinfeldModule(tower, SkewPoly.tau_power(tower, 2))
    psi = DrinfeldModule(tower, SkewPoly.tau_power(tower, 2, outside[0]))
    assert find_isomorphism(phi, psi) is None
    inside = next(iter(orbit - {tower.one}), None)
    if inside is not None:
        psi2 = DrinfeldModule(tower, SkewPoly.tau_power(tower, 2, inside))
        assert find_isomorphism(phi, psi2) is not None


def wide_automorphism_module(rng: random.Random, tower) -> DrinfeldModule:
    """A module with terms of phi_T only at multiples of e, the least
    divisor e > 1 of n: c phi_T c^{-1} = phi_T for every c of F_(q^e), so
    Aut(phi) is larger than F_q^x."""
    e = next(d for d in range(2, tower.n + 1) if tower.n % d == 0)
    r = e * rng.randrange(1, 3)
    coeffs = [rand_kelem(rng, tower)] + [tower.zero] * (r - 1) + [rand_unit(rng, tower)]
    for j in range(e, r, e):
        coeffs[j] = rand_kelem(rng, tower)
    phi = DrinfeldModule(tower, SkewPoly(tower, coeffs))
    autos = [c for c in tower.elements() if c and is_isogeny(SkewPoly(tower, (c,)), phi, phi)]
    assert len(autos) >= tower.q**e - 1
    return phi


@pytest.mark.parametrize("name", sorted(_SPECS))
def test_find_isomorphism_matches_the_search(name):
    """The solve of the degree-0 Hom system returns the c the exhaustive
    search returns (`conftest.search_isomorphism`): the first in the order
    of `FieldTower.elements`, also when many c conjugate phi to psi."""
    tower = get_tower(name)
    rng = random.Random(f"isomorphism-{name}")
    phis = [rand_module(rng, tower, max_rank=3) for _ in range(6)]
    if tower.n > 1:
        phis += [wide_automorphism_module(rng, tower) for _ in range(4)]
    pairs = []
    for phi in phis:
        # another module of the same rank and constant term
        mid = [rand_kelem(rng, tower) for _ in range(phi.rank - 1)]
        other = SkewPoly(tower, [phi.t] + mid + [rand_unit(rng, tower)])
        pairs += [
            (phi, phi),
            (phi, twist(phi, rand_unit(rng, tower))),
            (phi, DrinfeldModule(tower, other)),
            (phi, rand_module(rng, tower, max_rank=3)),
        ]
    found = 0
    for phi, psi in pairs:
        c = find_isomorphism(phi, psi)
        assert c == search_isomorphism(phi, psi)
        if c is not None:
            assert twist(phi, c).phi_t == psi.phi_t
            found += 1
    assert found >= 2 * len(phis)


def test_find_isomorphism_above_the_table_limit():
    tower = tower_above_table_limit()
    rng = random.Random("isomorphism-above")
    coeffs = [rand_kelem(rng, tower), rand_kelem(rng, tower), tower.one]
    phi = DrinfeldModule(tower, SkewPoly(tower, coeffs))
    psi = twist(phi, rand_unit(rng, tower))
    c = find_isomorphism(phi, psi)
    assert c is not None and c == search_isomorphism(phi, psi)


def minimal_isogeny(phi: DrinfeldModule, psi: DrinfeldModule) -> SkewPoly:
    """A nonzero u of least tau-degree D with u phi_T = psi_T u: the null
    vector of the least free column of `hom_system(phi_T, psi_T, D)`, for
    the least D whose system has one."""
    tower = phi.tower
    n = tower.n
    for cap in itertools.count():
        free, null_vector = echelon(tower.fq, hom_system(phi.phi_t, psi.phi_t, cap), (cap + 1) * n)
        if free:
            v = null_vector(free[0])
            u = SkewPoly(tower, [tower.elem(v[d * n : d * n + n]) for d in range(cap + 1)])
            assert u.degree == cap
            return u


@pytest.mark.parametrize(
    ("name", "rank", "degrees"),
    [("f9", 2, {1: 54}), ("f8", 3, {1: 200, 2: 228, 3: 104})],
    ids=["f9-rank2", "f8-rank3"],
)
def test_minimal_isogeny_between_every_pair_of_census_members(name, rank, degrees):
    """Every two members of an isogeny class of the F_9 rank-2 and F_8
    rank-3 censuses (every root) are joined by an isogeny read off the Hom
    system at the least degree that has one; the counts are the degrees
    of the pairs."""
    tower = get_tower(name)
    found = Counter()
    for _, t in characteristic_roots(tower):
        for grp in census_isomorphism_classes(tower, rank, t).values():
            members = [entry.rep for entry in grp.iso_classes]
            for phi, psi in itertools.combinations(members, 2):
                u = minimal_isogeny(phi, psi)
                assert is_isogeny(u, phi, psi)
                found[u.degree] += 1
    assert found == degrees


def test_same_isogeny_class():
    f2 = get_tower("f2")
    supersingular = DrinfeldModule(f2, SkewPoly.tau_power(f2, 2))
    ordinary = DrinfeldModule(f2, SkewPoly(f2, [f2.zero, f2.one, f2.one]))
    assert same_isogeny_class(supersingular, supersingular)
    assert not same_isogeny_class(supersingular, ordinary)
    assert supersingular.profile().min_poly_text() == "x^2+T"
    assert ordinary.profile().min_poly_text() == "x^2+x+T"


def test_image_over_another_fq_is_rejected(rank3_example):
    # F_16 over F_2 against T + 2 over F_3: the encodings are not reduced
    # mod 2 behind the caller's back
    other = get_tower("f9").fq
    with pytest.raises(ContextError):
        rank3_example(APoly(other, [2, 1]))
    with pytest.raises(ContextError):
        rank3_example(APoly.var(get_tower("f16e2").fq))


def test_rank_zero_rejected():
    f2 = get_tower("f2")
    with pytest.raises(ValueError):
        DrinfeldModule(f2, SkewPoly.one(f2))
