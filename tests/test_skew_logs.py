"""The logarithm kernels of k{tau} against the defining sums.

On towers with discrete-log tables, `SkewPoly` products, right division
and the commutator columns run on logarithms, with sums through the Zech
table. Here they are checked against the same quantities computed by plain
`KElem` operations: products and Frobenius per term, coordinate-wise sums
(`ref_skew_mul`). Forced cancellations (f*g - g*f, f - f, divisions with
zero remainder) exercise the case 1 + gamma^z = 0 of the Zech table. The
commutator system comes as sparse rows: each row's band is checked, then
every entry of the matrix written out densely.
"""

import random

import pytest

from drinfeld import SkewPoly
from drinfeld.serialize import field_from_json, field_to_json
from drinfeld.skew import commutator_system

from conftest import (
    _SPECS,
    _flatten_skew,
    assert_commutator_band,
    dense_rows,
    get_tower,
    rand_kelem,
    rand_module,
    rand_nonzero_skew,
    rand_skew,
    ref_skew_mul,
    tower_above_table_limit,
)

TABLE_TOWERS = sorted(_SPECS)


def ref_commutator_entry(phi: SkewPoly, c, i: int, j: int):
    """c g_j^(q^i) - g_j c^(q^j): the coefficient of tau^(i+j) in
    c tau^i phi - phi c tau^i from the j-th term of phi."""
    gj = phi[j]
    return c * gj.frobq(i) - gj * c.frobq(j)


def check_products_and_division(tower, rng, trials, maxdeg):
    for _ in range(trials):
        f, g = rand_skew(rng, tower, maxdeg), rand_skew(rng, tower, maxdeg)
        assert f * g == ref_skew_mul(f, g)
        assert not f - f
        # the commutator cancels at least its top term, often more
        assert f * g - g * f == ref_skew_mul(f, g) - ref_skew_mul(g, f)
        h = rand_nonzero_skew(rng, tower, maxdeg)
        quo, rem = f.rdivmod(h)
        assert rem.degree < h.degree
        assert ref_skew_mul(quo, h) + rem == f
        # an exact multiple leaves no remainder and returns its cofactor
        assert (g * h).rdivmod(h) == (g, SkewPoly.zero(tower))


@pytest.mark.parametrize("name", TABLE_TOWERS)
def test_log_kernels_match_defining_sums(name):
    tower = get_tower(name)
    assert tower._tables is not None
    check_products_and_division(tower, random.Random(f"logs-{name}"), 60, 6)


def test_polynomial_path_above_the_table_limit():
    tower = tower_above_table_limit()
    check_products_and_division(tower, random.Random("logs-above"), 8, 3)


@pytest.mark.parametrize("name", TABLE_TOWERS)
def test_commutator_columns_match_defining_entries(name):
    tower = get_tower(name)
    rng = random.Random(f"columns-{name}")
    n = tower.n
    for _ in range(4):
        module = rand_module(rng, tower, max_rank=4)
        phi = module.phi_t
        cap = rng.randrange(0, 2 * n + 3)
        rows = commutator_system(phi, cap)
        assert len(rows) == (cap + module.rank + 1) * n
        assert_commutator_band(rows, n, module.rank, cap)
        cols = list(zip(*dense_rows(rows, (cap + 1) * n)))
        assert len(cols) == (cap + 1) * n
        for i in range(cap + 1):
            for comp in range(n):
                c = tower.elem([0] * comp + [1])
                want = [tower.zero] * (cap + module.rank + 1)
                for j in range(module.rank + 1):
                    want[i + j] = want[i + j] + ref_commutator_entry(phi, c, i, j)
                flat = _flatten_skew(SkewPoly(tower, want), cap + module.rank)
                assert list(cols[i * n + comp]) == flat


def test_commutator_columns_above_the_table_limit():
    tower = tower_above_table_limit()
    rng = random.Random("columns-above")
    phi = SkewPoly(tower, [rand_kelem(rng, tower) for _ in range(3)] + [tower.one])
    cap = 2
    rows = commutator_system(phi, cap)
    assert len(rows) == (cap + 4) * tower.n
    assert_commutator_band(rows, tower.n, 3, cap)
    cols = list(zip(*dense_rows(rows, (cap + 1) * tower.n)))
    assert len(cols) == (cap + 1) * tower.n
    for i in range(cap + 1):
        for comp in range(tower.n):
            u = SkewPoly.tau_power(tower, i, tower.elem([0] * comp + [1]))
            want = _flatten_skew(ref_skew_mul(u, phi) - ref_skew_mul(phi, u), cap + 3)
            assert list(cols[i * tower.n + comp]) == want


@pytest.mark.parametrize("name", TABLE_TOWERS)
def test_zech_identities(name):
    tower = get_tower(name)
    tab = tower._tables
    order = tab.order
    minus_one = -tower.one
    assert tab.exp[tab.neg] == minus_one.coeffs
    assert tab.neg == (0 if tower.p == 2 else order // 2)
    assert len(tab.zech) == order
    for z, v in enumerate(tab.exp):
        one_plus = tower.one + tower.elem(v)
        zech = tab.zech[z]
        if z == tab.neg:
            assert zech is None and not one_plus
            continue
        assert tab.exp[zech] == one_plus.coeffs
        # 1 + gamma^-z = gamma^-z (1 + gamma^z)
        assert tab.zech[-z % order] == (zech - z) % order


def test_zech_table_is_loaded_with_the_tables_not_by_the_parser():
    known = get_tower("f81")
    tower = field_from_json(field_to_json(known))
    assert "_tables" not in tower.__dict__
    # shared through the per-definition cache, which keeps every field
    assert tower._tables.zech is known._tables.zech


def test_tables_survive_loading_nine_other_towers():
    """A process that has loaded many fields still shares the tables of the
    first one: loading it again builds nothing."""
    names = ("f2", "f3", "f4", "f8", "f9", "f16", "f16e2", "f27", "f81")
    first = field_from_json(field_to_json(get_tower("f729")))
    tables = first._tables
    for name in names:
        assert field_from_json(field_to_json(get_tower(name)))._tables is not None
    assert field_from_json(field_to_json(get_tower("f729")))._tables is tables
