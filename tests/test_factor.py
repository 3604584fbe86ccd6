"""The one F_q-polynomial layer: Ben-Or irreducibility, trial-division
factoring and the F_q tables, against sympy and a brute-force oracle."""

import itertools
import random

import pytest

from drinfeld import APoly, TooLarge, first_irreducible, prime_divisors
from drinfeld.apoly import monic_polys
from drinfeld.fields import Fq, base_field

F4 = base_field(2, 2, (1, 1, 1))  # F_2[y]/(y^2+y+1)


def _monic(fq, max_degree):
    for d in range(max_degree + 1):
        yield from monic_polys(fq, d)


def _trial_division_is_irreducible(f: APoly) -> bool:
    """The oracle: no monic divisor of degree 1..deg/2."""
    if f.degree < 1:
        return False
    return all(
        f % div for d in range(1, f.degree // 2 + 1) for div in monic_polys(f.fq, d)
    )


def _sympy_poly(f: APoly):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(f.coeffs)), x, modulus=f.fq.p)


@pytest.mark.parametrize("p, max_degree", [(2, 6), (3, 6), (5, 4)])
def test_is_irreducible_matches_sympy(p, max_degree):
    pytest.importorskip("sympy")
    fq = base_field(p, 1, (0, 1))
    for f in _monic(fq, max_degree):
        want = f.degree >= 1 and _sympy_poly(f).is_irreducible
        assert f.is_irreducible() == want, f


@pytest.mark.parametrize(
    "fq, max_degree",
    [(base_field(2, 1, (0, 1)), 8), (base_field(3, 1, (0, 1)), 5), (F4, 4)],
)
def test_is_irreducible_matches_trial_division(fq, max_degree):
    for f in _monic(fq, max_degree):
        assert f.is_irreducible() == _trial_division_is_irreducible(f), f
    # a unit multiple is irreducible exactly when the monic one is
    for f in monic_polys(fq, 3):
        assert f.scale(fq.q - 1).is_irreducible() == f.is_irreducible()


def test_zero_and_constants_are_not_irreducible():
    fq = base_field(3, 1, (0, 1))
    assert not APoly.zero(fq).is_irreducible()
    assert not APoly.const(fq, 2).is_irreducible()
    assert APoly.var(fq).is_irreducible()


@pytest.mark.parametrize("p, max_degree", [(2, 7), (3, 5), (5, 4)])
def test_prime_divisors_match_sympy(p, max_degree):
    pytest.importorskip("sympy")
    fq = base_field(p, 1, (0, 1))
    for f in _monic(fq, max_degree):
        got = prime_divisors(f.scale(p - 1))
        assert [d.degree for d in got] == sorted(d.degree for d in got)
        _, factors = _sympy_poly(f).factor_list()
        want = {tuple(int(c) % p for c in reversed(g.monic().all_coeffs())) for g, _ in factors}
        assert {d.coeffs for d in got} == want, f
        assert len(got) == len(want)


def test_prime_divisors_order_and_multiplicity():
    fq = base_field(2, 1, (0, 1))
    x, one = APoly.var(fq), APoly.one(fq)
    f = x**3 * (x + one) ** 2 * APoly(fq, (1, 1, 1)) * APoly(fq, (1, 0, 1, 1))
    assert prime_divisors(f) == [x, x + one, APoly(fq, (1, 1, 1)), APoly(fq, (1, 0, 1, 1))]
    assert prime_divisors(one) == prime_divisors(APoly.zero(fq)) == []


def test_prime_divisors_refuse_beyond_desk_scale():
    # over F_101, a sextic with no factor of degree <= 2 needs the cubics
    # next, and 101 + 101^2 + 101^3 trial divisors exceed 10^6
    fq = base_field(101, 1, (0, 1))
    f = next(
        f for c in range(1, 101) if (f := APoly(fq, (c, 1, 0, 0, 0, 0, 1))).is_irreducible()
    )
    with pytest.raises(TooLarge):
        prime_divisors(f)


@pytest.mark.parametrize("p, e", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_fq_mul_tables_match_sympy(p, e):
    galois = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    prime = base_field(p, 1, (0, 1))
    irreducibles = [f for f in monic_polys(prime, e) if f.is_irreducible()][:3]
    assert irreducibles
    for h in irreducibles:
        fq = Fq(p, e, h.coeffs)
        h_be = list(reversed(h.coeffs))
        for a, b in itertools.product(range(fq.q), repeat=2):
            a_be, b_be = (galois.gf_strip(fq._digits(v)[::-1]) for v in (a, b))
            prod = galois.gf_rem(galois.gf_mul(a_be, b_be, p, ZZ), h_be, p, ZZ)
            want = sum(int(c) * p**i for i, c in enumerate(reversed(prod)))
            assert fq.mul(a, b) == want
        for a in range(1, fq.q):
            assert fq.mul(a, fq.inv(a)) == 1


# the first monic irreducible of each degree 1..13, recorded with the
# trial-division test this layer replaced
FIRST_IRREDUCIBLE = {
    2: [
        (0, 1),
        (1, 1, 1),
        (1, 0, 1, 1),
        (1, 0, 0, 1, 1),
        (1, 0, 0, 1, 0, 1),
        (1, 0, 0, 0, 0, 1, 1),
        (1, 0, 0, 0, 0, 0, 1, 1),
        (1, 0, 0, 0, 1, 1, 0, 1, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
        (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1),
    ],
    3: [
        (0, 1),
        (1, 0, 1),
        (1, 0, 2, 1),
        (1, 0, 1, 1, 1),
        (1, 0, 0, 0, 2, 1),
        (1, 0, 0, 0, 1, 1, 1),
        (1, 0, 0, 0, 0, 1, 2, 1),
        (1, 0, 0, 0, 0, 1, 1, 0, 1),
        (1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1),
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1),
    ],
}


@pytest.mark.parametrize("q", sorted(FIRST_IRREDUCIBLE))
def test_first_irreducible_is_unchanged(q):
    fq = base_field(q, 1, (0, 1))
    got = [first_irreducible(fq, d).coeffs for d in range(1, 14)]
    assert got == FIRST_IRREDUCIBLE[q]


def test_random_products_are_reducible():
    rng = random.Random(5)
    for fq in (base_field(5, 1, (0, 1)), F4):
        for _ in range(100):
            a, b = (
                APoly(fq, [rng.randrange(fq.q) for _ in range(rng.randrange(1, 5))] + [1])
                for _ in range(2)
            )
            assert not (a * b).is_irreducible()
