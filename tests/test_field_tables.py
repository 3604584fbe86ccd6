"""The discrete-log table path of k against the polynomial path.

The polynomial path (APoly products and powers reduced mod g, extended
Euclid, the linear q-power map) builds the tables and serves towers above
the table limit; here it is the reference every table lookup is checked
against, and sympy's GF(p) arithmetic checks it in turn."""

import itertools
import random

import pytest

from drinfeld import APoly, FieldTower, first_irreducible
from drinfeld.fields import _LOG_TABLE_LIMIT, _poly_frob, _vector, base_field
from drinfeld.serialize import field_from_json, field_to_json

from conftest import get_tower, rand_kelem

EXHAUSTIVE = ("f4", "f8", "f9", "f16e2", "f27")
SAMPLED = ("f256", "f729")


def ref_mul(t, a, b):
    return _vector(APoly(t.fq, a) * APoly(t.fq, b) % APoly(t.fq, t.g), t.n)


def ref_inv(t, a):
    return _vector(APoly(t.fq, a).inverse_mod(APoly(t.fq, t.g)), t.n)


def ref_pow(t, a, m):
    if m < 0:
        a, m = ref_inv(t, a), -m
    return _vector(APoly(t.fq, a).powmod(m, APoly(t.fq, t.g)), t.n)


def check_element(t, a):
    """inv, **, frobq(j) for every j, against the polynomial path."""
    order = t.q**t.n - 1
    for j in range(-1, t.n + 2):
        want = _poly_frob(t.fq, t._frob_vectors, a.coeffs, j % t.n)
        assert a.frobq(j).coeffs == want
        assert want == ref_pow(t, a.coeffs, t.q ** (j % t.n))
    exponents = [0, 1, 2, 3, t.q, order, order + 1, 2 * order + 5]
    if a:
        assert a.inv().coeffs == ref_inv(t, a.coeffs)
        exponents += [-1, -2, -order - 1]
    for m in exponents:
        assert (a**m).coeffs == ref_pow(t, a.coeffs, m)


def check_pair(t, a, b):
    assert (a * b).coeffs == ref_mul(t, a.coeffs, b.coeffs)
    if b:
        assert (a / b).coeffs == ref_mul(t, a.coeffs, ref_inv(t, b.coeffs))


@pytest.mark.parametrize("name", ("f9", "f27", "f256"))
def test_reference_product_matches_sympy(name):
    galois = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    t = get_tower(name)
    g = list(reversed(t.g))
    rng = random.Random(43)
    for _ in range(200):
        a, b = rand_kelem(rng, t).coeffs, rand_kelem(rng, t).coeffs
        a_be, b_be = (galois.gf_strip(list(v[::-1])) for v in (a, b))
        prod = galois.gf_rem(galois.gf_mul(a_be, b_be, t.p, ZZ), g, t.p, ZZ)
        want = tuple(reversed(prod)) + (0,) * (t.n - len(prod))
        assert ref_mul(t, a, b) == want


@pytest.mark.parametrize("name", EXHAUSTIVE)
def test_table_path_matches_polynomial_path_on_every_pair(name):
    t = get_tower(name)
    assert t._tables is not None
    elems = list(t.elements())
    for a in elems:
        check_element(t, a)
    for a, b in itertools.product(elems, repeat=2):
        check_pair(t, a, b)


@pytest.mark.parametrize("name", SAMPLED)
def test_table_path_matches_polynomial_path_on_a_sample(name):
    t = get_tower(name)
    assert t._tables is not None
    rng = random.Random(41)
    for _ in range(60):
        check_element(t, rand_kelem(rng, t))
    for _ in range(400):
        check_pair(t, rand_kelem(rng, t), rand_kelem(rng, t))


@pytest.mark.parametrize("name", EXHAUSTIVE + SAMPLED)
def test_gamma_has_order_q_to_the_n_minus_one(name):
    t = get_tower(name)
    tab = t._tables
    order = t.q**t.n - 1
    assert tab.order == order == len(tab.exp) == len(set(tab.exp)) == len(tab.log)
    gamma = tab.exp[1 % order]
    # exp[i + 1] = exp[i] * gamma around the whole cycle, exp[0] = 1: the
    # q^n - 1 powers of gamma are distinct, so gamma is primitive
    assert tab.exp[0] == t.one.coeffs
    for i, v in enumerate(tab.exp):
        assert tab.exp[(i + 1) % order] == ref_mul(t, v, gamma)
        assert tab.log[v] == i


def test_zero_has_no_logarithm():
    t = get_tower("f9")
    a = t.gen()
    assert t.zero * a == a * t.zero == t.zero
    assert t.zero.frobq(1) == t.zero
    assert t.zero**0 == t.one and t.zero**3 == t.zero
    for op in (t.zero.inv, lambda: t.zero**-1, lambda: a / t.zero):
        with pytest.raises(ZeroDivisionError):
            op()


def test_equal_definitions_share_one_table_and_base_field():
    spec = field_to_json(get_tower("f27"))
    t1, t2 = field_from_json(spec), field_from_json(spec)
    assert t1 is not t2 and t1 == t2
    assert t1.fq is t2.fq
    assert t1._tables is t2._tables is get_tower("f27")._tables


def test_tables_stop_at_the_limit():
    fq = base_field(2, 1, (0, 1))
    at = FieldTower(2, 1, [0, 1], 12, first_irreducible(fq, 12).coeffs)
    assert at.q**at.n == _LOG_TABLE_LIMIT
    assert at._tables is not None
    above = FieldTower(2, 1, [0, 1], 13, first_irreducible(fq, 13).coeffs)
    assert above._tables is None
    rng = random.Random(17)
    for t in (at, above):
        for _ in range(10):
            check_pair(t, rand_kelem(rng, t), rand_kelem(rng, t))


def test_tower_above_the_table_limit_takes_the_polynomial_path():
    # x^17 + x^3 + 1 is irreducible over F_2
    t = FieldTower(2, 1, [0, 1], 17, [1, 0, 0, 1] + [0] * 13 + [1])
    assert t.q**t.n > _LOG_TABLE_LIMIT
    assert t._tables is None
    rng = random.Random(17)
    for _ in range(20):
        a, b = rand_kelem(rng, t), rand_kelem(rng, t)
        if not a or not b:
            continue
        assert a * a.inv() == t.one
        assert (a / b) * b == a
        assert a.frobq() == a * a
        assert (a * b).frobq(3) == a.frobq(3) * b.frobq(3)
        assert a.frobq(-1).frobq() == a.frobq(t.n) == a
        assert a**5 == a * a * a * a * a
        assert a**-2 * a**2 == t.one
    with pytest.raises(ZeroDivisionError):
        t.zero.inv()
