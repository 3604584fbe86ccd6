"""The row kernels of the F_q scalar layer against the per-scalar `Fq` API
and against skew products.

`KElem` sums read the base field's tables a row at a time, and the
centralizer system is read off the coefficients of phi_T instead of being
built from skew products; both are checked against the plain definitions,
the columns against products summed term by term (`ref_skew_mul`), not
against the logarithm kernel that `SkewPoly` and the columns share.
"""

import random

import pytest

from drinfeld import SkewPoly
from drinfeld.orders import _flatten_skew, centralizer_basis
from drinfeld.skew import commutator_system

from conftest import (
    assert_commutator_band,
    dense_rows,
    get_tower,
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


@pytest.mark.parametrize("name", ["f16", "f9", "f16e2"])
def test_commutator_columns_match_skew_products(name):
    tower = get_tower(name)
    rng = random.Random(f"commutator-{name}")
    for _ in range(6):
        module = rand_module(rng, tower, max_rank=3)
        cap = module.n * rng.randrange(1, 4)
        rows = commutator_system(module.phi_t, cap)
        height = cap + module.rank
        n = tower.n
        assert len(rows) == (height + 1) * n
        assert_commutator_band(rows, n, module.rank, cap)
        cols = [list(col) for col in zip(*dense_rows(rows, (cap + 1) * n))]
        assert len(cols) == (cap + 1) * n
        phi = module.phi_t
        for i in range(cap + 1):
            # every unit c of k, by F_q-linearity in c from the columns of
            # the basis elements x^comp
            for c in tower.elements():
                if not c:
                    continue
                u = SkewPoly.tau_power(tower, i, c)
                want = _flatten_skew(ref_skew_mul(u, phi) - ref_skew_mul(phi, u), height)
                got = [0] * len(want)
                for comp, a in enumerate(c.coeffs):
                    col = cols[i * n + comp]
                    got = [tower.fq.add(x, tower.fq.mul(a, y)) for x, y in zip(got, col)]
                assert got == want


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
