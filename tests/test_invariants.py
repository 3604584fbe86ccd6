import random

import pytest

from drinfeld import (
    APoly,
    DrinfeldModule,
    SkewPoly,
    minpoly_frobenius,
    roots_in_k,
    solve_ramification_invariants,
    transpose_bivariate,
)

from drinfeld.skew import coefficient_rows

from conftest import get_tower, rand_module


@pytest.mark.parametrize("name", ["f9", "f16e2", "f729"])
def test_frobenius_columns_shift_equals_product(name):
    # minpoly_frobenius reads its columns phi_{T^j} tau^(n i) off the
    # cached powers phi_{T^j} with a shift of n i, and m(pi) is checked on
    # powers moved up by shift; j <= n and i <= rank
    tower = get_tower(name)
    rng = random.Random(name)
    assert SkewPoly.zero(tower).shift(tower.n) == SkewPoly.zero(tower)
    for _ in range(3):
        phi = rand_module(rng, tower)
        cols, shifts, products = [], [], []
        for i in range(phi.rank + 1):
            tau = SkewPoly.tau_power(tower, phi.n * i)
            for j in range(phi.n + 1):
                product = phi.phi_t_power(j) * tau
                assert phi.phi_t_power(j).shift(phi.n * i) == product
                cols.append(phi.phi_t_power(j))
                shifts.append(phi.n * i)
                products.append(product)
        height = max(f.degree for f in products) + 1
        for col, m, product in zip(cols, shifts, products):
            assert coefficient_rows([col], height, [m]) == coefficient_rows([product], height)
        assert coefficient_rows(cols, height, shifts) == coefficient_rows(products, height)


def test_supersingular_minpoly():
    f8 = get_tower("f8")
    phi = DrinfeldModule(f8, SkewPoly.tau_power(f8, 2))
    prof = phi.profile()
    fq = f8.fq
    assert prof.min_poly == (-(APoly.var(fq) ** 3), APoly.zero(fq), APoly.one(fq))
    assert prof.s == 2 and prof.nk == 3
    assert (prof.lhs, prof.rhs, prof.is_locally_maximal) == (2, 3, False)


def test_rank3_example_minpoly(rank3_example):
    prof = rank3_example.profile()
    assert prof.min_poly_text() == "x^3+T*x^2+x+(T^4+T+1)"
    assert prof.s == 3 and prof.nk == 4
    assert prof.is_locally_maximal  # prime field


def test_m_tilde_read_back_in_x():
    f81 = get_tower("f81")
    prime = APoly(f81.fq, [2, 1, 1])
    t = roots_in_k(f81, prime)[0]
    phi = DrinfeldModule(f81, SkewPoly(f81, [t, f81.zero, f81.one]))
    prof = phi.profile()
    assert prof.m_tilde_text() == "x^4+2*x^3+(pi+2)*x^2+(pi+1)*x+(pi^2+1)"
    assert prof.nk == 4


def test_transpose_is_involution():
    rng = random.Random(97)
    for name in ("f4", "f9"):
        tower = get_tower(name)
        for _ in range(25):
            phi = rand_module(rng, tower, max_rank=2)
            prof = phi.profile()
            back = transpose_bivariate(list(prof.m_tilde))
            assert tuple(back) == prof.min_poly


def test_minpoly_annihilates_and_degree_dominance():
    rng = random.Random(101)
    for name in ("f4", "f9", "f8", "f16e2"):
        tower = get_tower(name)
        for _ in range(20):
            phi = rand_module(rng, tower, max_rank=2)
            m = minpoly_frobenius(phi)
            acc = SkewPoly.zero(tower)
            for i, c in enumerate(m):
                acc = acc + phi(c) * SkewPoly.tau_power(tower, tower.n * i)
            assert not acc
            m0 = m[0]
            for c in m[1:-1]:
                assert c.degree < m0.degree
            # m(0) is a unit multiple of the characteristic prime power
            prof = phi.profile()
            assert m0.monic() == (phi.char_prime ** (prof.nk // phi.d)).monic()


def test_degree_relation_and_inequality():
    rng = random.Random(103)
    for name in ("f4", "f9", "f16"):
        tower = get_tower(name)
        for _ in range(25):
            phi = rand_module(rng, tower, max_rank=2)
            prof = phi.profile()
            assert prof.s * prof.n == prof.nk * prof.r
            assert prof.lhs <= prof.rhs
            assert prof.m_tilde[-1].degree == 0


def test_sub_rank_minpoly_path():
    # pi = phi_T for the supersingular module over F_4: s = 1 < r = 2
    f4 = get_tower("f4")
    phi = DrinfeldModule(f4, SkewPoly.tau_power(f4, 2))
    prof = phi.profile()
    assert prof.s == 1
    assert prof.min_poly_text() == "x+T"
    assert not prof.end_ring_commutative


def test_ramification_solver_golden():
    assert solve_ramification_invariants(4, 2, 1, 4) == {(2, 1, 1, 2)}
    assert solve_ramification_invariants(6, 2, 2, 6) == {(3, 2, 1, 2)}
    assert solve_ramification_invariants(2, 1, 2, 2) == {(1, 1, 2, 2), (2, 2, 1, 1)}
    # inconsistent inputs yield the empty set
    assert solve_ramification_invariants(4, 2, 3, 2) == set()


def test_corollary_checks():
    f81 = get_tower("f81")
    prime = APoly(f81.fq, [2, 1, 1])
    t = roots_in_k(f81, prime)[0]
    ordinary = DrinfeldModule(f81, SkewPoly(f81, [t, f81.zero, f81.one]))
    rep = ordinary.profile().corollary_checks()
    assert "height_at_most_r_over_s" in rep["fired"] and rep["verdict"]

    prime_field = get_tower("f16")
    t2 = prime_field.gen()
    phi = DrinfeldModule(
        prime_field, SkewPoly(prime_field, [t2, prime_field.zero, t2**3, prime_field.one])
    )
    rep2 = phi.profile().corollary_checks()
    assert "prime_field" in rep2["fired"] and rep2["verdict"]

    f8 = get_tower("f8")
    ss = DrinfeldModule(f8, SkewPoly.tau_power(f8, 2))
    rep3 = ss.profile().corollary_checks()
    assert rep3["fired"] == [] and not rep3["verdict"]
