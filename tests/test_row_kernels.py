"""The row kernels of the F_q scalar layer against the per-scalar `Fq` API
and against skew products.

`KElem` sums read the base field's tables a row at a time, and the Hom
system of u -> u f - g u (the centralizer's for f = g = phi_T) is read off
the coefficients of f and g instead of being built from skew products;
both are checked against the plain definitions, the columns against
products summed term by term (`ref_skew_mul`), not against the logarithm
kernel that `SkewPoly` and the columns share.
"""

import random

import pytest

from drinfeld import SkewPoly
from drinfeld.orders import centralizer_basis
from drinfeld.skew import hom_system

from conftest import (
    HOM_PAIR_KINDS,
    _flatten_skew,
    assert_hom_band,
    dense_rows,
    get_tower,
    hom_pair,
    rand_kelem,
    rand_module,
    rand_skew,
    ref_skew_mul,
)

PAIRS = 400


@pytest.mark.parametrize("name", ["f16e2", "f729"])
def test_kelem_sums_match_coordinatewise_fq(name):
    tower = get_tower(name)
    fq = tower.fq
    rng = random.Random(f"sums-{name}")
    for _ in range(PAIRS):
        a, b = rand_kelem(rng, tower), rand_kelem(rng, tower)
        if rng.random() < 0.1:
            b = a
        pairs = list(zip(a.coeffs, b.coeffs))
        assert (a + b).coeffs == tuple(fq.add(x, y) for x, y in pairs)
        assert (a - b).coeffs == tuple(fq.sub(x, y) for x, y in pairs)
        assert (-a).coeffs == tuple(fq.neg(x) for x in a.coeffs)
        assert (a + b) - b == a and a - a == tower.zero


@pytest.mark.parametrize("name", ["f16e2", "f729"])
def test_skew_difference_is_sum_with_negation(name):
    tower = get_tower(name)
    rng = random.Random(f"skew-sub-{name}")
    for _ in range(60):
        f, g = rand_skew(rng, tower, 5), rand_skew(rng, tower, 5)
        assert (f - g) + g == f
        assert not f - f


def check_hom_columns_against_products(f: SkewPoly, g: SkewPoly, cap: int) -> None:
    tower = f.tower
    rows = hom_system(f, g, cap)
    height = cap + max(f.degree, g.degree)
    n = tower.n
    assert len(rows) == (height + 1) * n
    assert_hom_band(rows, n, max(f.degree, g.degree), cap)
    cols = [list(col) for col in zip(*dense_rows(rows, (cap + 1) * n))]
    assert len(cols) == (cap + 1) * n
    for i in range(cap + 1):
        # every unit c of k, by F_q-linearity in c from the columns of
        # the basis elements x^comp
        for c in tower.elements():
            if not c:
                continue
            u = SkewPoly.tau_power(tower, i, c)
            want = _flatten_skew(ref_skew_mul(u, f) - ref_skew_mul(g, u), height)
            got = [0] * len(want)
            for comp, a in enumerate(c.coeffs):
                col = cols[i * n + comp]
                got = [tower.fq.add(x, tower.fq.mul(a, y)) for x, y in zip(got, col)]
            assert got == want


@pytest.mark.parametrize("name", ["f16", "f9", "f16e2"])
def test_commutator_columns_match_skew_products(name):
    tower = get_tower(name)
    rng = random.Random(f"commutator-{name}")
    for _ in range(6):
        phi = rand_module(rng, tower, max_rank=3).phi_t
        check_hom_columns_against_products(phi, phi, tower.n * rng.randrange(1, 4))
    # g as one more input: one pair of each kind
    for kind in HOM_PAIR_KINDS:
        f, g = hom_pair(rng, tower, kind, max_rank=3)
        check_hom_columns_against_products(f, g, tower.n * rng.randrange(1, 3))


def test_centralizer_basis_commutes_with_phi_t():
    tower = get_tower("f16e2")
    rng = random.Random("centralizer-f16e2")
    checked = 0
    for _ in range(40):
        module = rand_module(rng, tower, max_rank=3)
        s = module.profile().s
        if s != module.rank:
            continue
        basis = [terms[0] for terms in centralizer_basis(module, s)[0]]
        assert len(basis) == s and basis[0] == SkewPoly.one(tower)
        for b in basis:
            assert b * module.phi_t == module.phi_t * b
        checked += 1
    assert checked >= 10
