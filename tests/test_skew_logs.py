"""The logarithm kernels of k{tau} against the defining sums.

On towers with discrete-log tables, `SkewPoly` products, right division
and the Hom columns run on logarithms, with sums through the Zech table.
Here they are checked against the same quantities computed by plain
`KElem` operations: products and Frobenius per term, coordinate-wise sums
(`ref_skew_mul`). Forced cancellations (f*g - g*f, f - f, divisions with
zero remainder) exercise the case 1 + gamma^z = 0 of the Zech table. The
Hom system of u -> u f - g u comes as sparse rows, or over F_2 as packed
columns: the band is checked (`assert_hom_band`), then every entry of the
matrix written out densely (`hom_columns`) against `ref_hom_entry`, for
g = f (the commutator of the centralizer) and for the pairs of
`hom_pair`, on every table tower and on F_{2^13} and F_{3^8}.
"""

import random

import pytest

from drinfeld import FieldTower, SkewPoly, first_irreducible
from drinfeld.fields import base_field
from drinfeld.serialize import field_from_json, field_to_json
from drinfeld.skew import hom_system

from conftest import (
    _SPECS,
    HOM_PAIR_KINDS,
    _flatten_skew,
    get_tower,
    hom_columns,
    hom_pair,
    rand_kelem,
    rand_module,
    rand_nonzero_skew,
    rand_skew,
    ref_skew_mul,
    tower_above_table_limit,
)

TABLE_TOWERS = sorted(_SPECS)


def ref_hom_entry(f: SkewPoly, g: SkewPoly, c, i: int, j: int):
    """c f_j^(q^i) - g_j c^(q^j): the coefficient of tau^(i+j) in
    c tau^i f - g c tau^i from the j-th terms of f and g."""
    return c * f[j].frobq(i) - g[j] * c.frobq(j)


def check_hom_columns(f: SkewPoly, g: SkewPoly, cap: int) -> None:
    """Every entry of `hom_system(f, g, cap)` against `ref_hom_entry`."""
    tower = f.tower
    n = tower.n
    r = max(f.degree, g.degree)
    cols = hom_columns(hom_system(f, g, cap), n, r, cap)
    assert len(cols) == (cap + 1) * n
    for i in range(cap + 1):
        for comp in range(n):
            c = tower.elem([0] * comp + [1])
            want = [tower.zero] * (cap + r + 1)
            for j in range(r + 1):
                want[i + j] = want[i + j] + ref_hom_entry(f, g, c, i, j)
            flat = _flatten_skew(SkewPoly(tower, want), cap + r)
            assert cols[i * n + comp] == flat


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
        phi = rand_module(rng, tower, max_rank=4).phi_t
        check_hom_columns(phi, phi, rng.randrange(0, 2 * n + 3))
    # g as one more input: one pair of each kind
    for kind in HOM_PAIR_KINDS:
        f, g = hom_pair(rng, tower, kind, max_rank=4)
        check_hom_columns(f, g, rng.randrange(0, 2 * n + 3))


def test_commutator_columns_above_the_table_limit():
    tower = tower_above_table_limit()
    rng = random.Random("columns-above")
    phi = SkewPoly(tower, [rand_kelem(rng, tower) for _ in range(3)] + [tower.one])
    cap = 2
    cols = hom_columns(hom_system(phi, phi, cap), tower.n, 3, cap)
    assert len(cols) == (cap + 1) * tower.n
    for i in range(cap + 1):
        for comp in range(tower.n):
            u = SkewPoly.tau_power(tower, i, tower.elem([0] * comp + [1]))
            want = _flatten_skew(ref_skew_mul(u, phi) - ref_skew_mul(phi, u), cap + 3)
            assert cols[i * tower.n + comp] == want
    for kind in HOM_PAIR_KINDS:
        f, g = hom_pair(rng, tower, kind, max_rank=3)
        check_hom_columns(f, g, 1)


def test_hom_columns_above_the_table_limit_in_odd_characteristic():
    """F_{3^8}, past the table limit with -1 != 1, so the sign of the
    g_j c^(q^j) that `hom_system` subtracts shows on the polynomial path."""
    fq = base_field(3, 1, (0, 1))
    tower = FieldTower(3, 1, [0, 1], 8, first_irreducible(fq, 8).coeffs)
    assert tower._tables is None
    rng = random.Random("columns-above-odd")
    for kind in HOM_PAIR_KINDS:
        f, g = hom_pair(rng, tower, kind, max_rank=2)
        check_hom_columns(f, g, 1)


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
