"""The F_q-combination kernel and the Frobenius profile built on it,
against the SkewPoly-sum and divisor-ladder oracles of conftest."""

import itertools
import random

import pytest

from drinfeld import APoly, DrinfeldModule, SkewPoly, minpoly_frobenius, skew_realization
from drinfeld.errors import InternalError
from drinfeld.invariants import FrobeniusProfile
from drinfeld.skew import fq_combination

from conftest import (
    _SPECS,
    get_tower,
    ladder_minpoly,
    rand_apoly,
    rand_module,
    rand_skew,
    ref_fq_combination,
    ref_image,
    tower_above_table_limit,
)

TOWERS = sorted(_SPECS) + ["f8192"]


def _tower(name):
    return tower_above_table_limit() if name == "f8192" else get_tower(name)


@pytest.mark.parametrize("name", TOWERS)
def test_kernel_matches_skewpoly_sums(name):
    tower = _tower(name)
    fq = tower.fq
    rng = random.Random(f"fq-combination-{name}")
    for _ in range(20):
        # scalars 0 and 1 take the kernel's shortcuts; zero polynomials
        # and cancelling leading terms are drawn too
        terms = [
            (rng.choice([0, 1, rng.randrange(fq.q)]), rand_skew(rng, tower, 6))
            for _ in range(rng.randrange(6))
        ]
        if terms and rng.random() < 0.3:
            v, f = terms[0]
            terms.append((fq.neg(v), f))
        got = SkewPoly(tower, fq_combination(tower, terms))
        assert got == ref_fq_combination(tower, terms)


@pytest.mark.parametrize("name", TOWERS)
def test_module_images_match_skewpoly_sums(name):
    tower = _tower(name)
    rng = random.Random(f"module-images-{name}")
    for _ in range(4):
        phi = rand_module(rng, tower, max_rank=3)
        for _ in range(4):
            a = rand_apoly(rng, tower.fq, 4)
            assert phi(a) == ref_image(phi, a)
        assert phi(phi.char_prime) == ref_image(phi, phi.char_prime)


@pytest.mark.parametrize("name", TOWERS)
def test_skew_realizations_match_skewpoly_sums(name):
    tower = _tower(name)
    rng = random.Random(f"skew-realizations-{name}")
    while True:
        phi = rand_module(rng, tower, max_rank=2)
        if phi.rank == 2 and phi.profile().end_ring_commutative:
            break
    order = phi.end_ring
    for _ in range(6):
        coords = [rand_apoly(rng, tower.fq, 3) for _ in range(order.s)]
        terms = [
            (v, order.skew_term(j, a)) for j, c in enumerate(coords) for a, v in enumerate(c.coeffs)
        ]
        assert skew_realization(order, coords) == ref_fq_combination(tower, terms)


@pytest.mark.parametrize("name", TOWERS)
def test_height_is_the_valuation_of_the_full_image(name):
    tower = _tower(name)
    rng = random.Random(f"height-{name}")
    for _ in range(6):
        phi = rand_module(rng, tower, max_rank=3)
        v = ref_image(phi, phi.char_prime).tau_valuation()
        assert phi.height * phi.d == v


def test_height_of_supersingular_modules():
    for name, r in (("f8", 2), ("f4", 4), ("f9", 3)):
        tower = get_tower(name)
        phi = DrinfeldModule(tower, SkewPoly.tau_power(tower, r))
        assert phi.height == r == ref_image(phi, phi.char_prime).tau_valuation()


@pytest.mark.parametrize("name", sorted(_SPECS) + ["f8192"])
def test_single_solve_matches_the_divisor_ladder(name):
    tower = _tower(name)
    rng = random.Random(f"single-solve-{name}")
    for _ in range(4):
        phi = rand_module(rng, tower, max_rank=2 if tower.n > 6 else 3)
        assert minpoly_frobenius(phi) == ladder_minpoly(phi)


def test_single_solve_below_the_rank():
    # F_4: pi = phi_T for tau^2 (s = 1 < r = 2) and pi^2 = phi_T for
    # tau^4 (s = 2 < r = 4); over F_8, tau^2 has s = r = 2 but is
    # supersingular
    cases = [("f4", 2, 1), ("f4", 4, 2), ("f8", 2, 2)]
    for name, r, s in cases:
        tower = get_tower(name)
        phi = DrinfeldModule(tower, SkewPoly.tau_power(tower, r))
        m = minpoly_frobenius(phi)
        assert len(m) - 1 == s
        assert m == ladder_minpoly(phi)


def test_single_solve_on_every_monic_rank4_module_over_f4():
    tower = get_tower("f4")
    degrees = set()
    for g in itertools.product(list(tower.elements()), repeat=4):
        phi = DrinfeldModule(tower, SkewPoly(tower, list(g) + [tower.one]))
        m = minpoly_frobenius(phi)
        assert m == ladder_minpoly(phi)
        degrees.add(len(m) - 1)
    assert degrees == {2, 4}


def test_validate_rejects_a_corrupted_min_poly():
    tower = get_tower("f9")
    rng = random.Random(5)
    phi = rand_module(rng, tower, max_rank=3)
    prof = phi.profile()
    bad = FrobeniusProfile.__new__(FrobeniusProfile)
    bad.__dict__.update(prof.__dict__)
    c0 = prof.min_poly[0]
    bad.min_poly = (c0 + APoly.one(tower.fq),) + prof.min_poly[1:]
    with pytest.raises(InternalError, match="does not annihilate pi"):
        bad._validate()
    prof._validate()
