import random

import pytest

from drinfeld import (
    APoly,
    ContextError,
    EmptyIdeal,
    SkewPoly,
    rgcd,
    rgcd_bezout,
    roots_in_k,
)

from conftest import get_tower, rand_nonzero_skew, rand_skew


def test_commutation_rule(f16):
    t = f16.gen()
    tau = SkewPoly.tau_power(f16, 1)
    assert tau * SkewPoly(f16, (t,)) == SkewPoly(f16, [f16.zero, t * t])


def test_square_with_subfield_coefficient(f729):
    prime = APoly(f729.fq, [2, 1, 1])
    t = roots_in_k(f729, prime)[0]
    f = SkewPoly(f729, [t] + [f729.zero] * 3 + [f729.one])  # t + tau^4
    sq = f * f
    two = f729.embed_fq(2)
    expected = SkewPoly(
        f729, [t * t] + [f729.zero] * 3 + [two * t] + [f729.zero] * 3 + [f729.one]
    )
    assert sq == expected  # t^(q^4) = t since t lies in F_9


def test_pi_is_central(f16):
    rng = random.Random(31)
    pi = SkewPoly.tau_power(f16, f16.n)
    for _ in range(100):
        f = rand_skew(rng, f16, 6)
        assert pi * f == f * pi


def test_rdivmod_by_one(f16):
    rng = random.Random(37)
    one = SkewPoly.one(f16)
    for _ in range(20):
        f = rand_skew(rng, f16, 5)
        q, r = f.rdivmod(one)
        assert q == f and not r


def test_rdivmod_construction_identity(f16):
    rng = random.Random(41)
    for _ in range(200):
        g = rand_skew(rng, f16, 4)
        h = rand_nonzero_skew(rng, f16, 4)
        r = rand_skew(rng, f16, max(h.degree - 1, 0))
        if r.degree >= h.degree:
            continue
        f = g * h + r
        quo, rem = f.rdivmod(h)
        assert quo == g and rem == r


def test_rdivmod_uniqueness(f16):
    rng = random.Random(43)
    for _ in range(150):
        f = rand_skew(rng, f16, 6)
        g = rand_nonzero_skew(rng, f16, 4)
        quo, rem = f.rdivmod(g)
        assert quo * g + rem == f
        assert rem.degree < g.degree
        quo2, rem2 = (f - quo * g).rdivmod(g)
        assert not quo2 and rem2 == rem


def test_degree_additivity(f16):
    rng = random.Random(47)
    for _ in range(150):
        f = rand_nonzero_skew(rng, f16, 5)
        g = rand_nonzero_skew(rng, f16, 5)
        assert (f * g).degree == f.degree + g.degree


def test_division_by_zero(f16):
    with pytest.raises(ZeroDivisionError):
        SkewPoly.one(f16).rdivmod(SkewPoly.zero(f16))


def test_tower_mismatch():
    a = SkewPoly.one(get_tower("f16"))
    b = SkewPoly.one(get_tower("f8"))
    with pytest.raises(ContextError):
        a * b


def test_rgcd_with_zero(f16):
    rng = random.Random(53)
    f = rand_nonzero_skew(rng, f16, 4)
    g = rgcd([f, SkewPoly.zero(f16)])
    assert g == f.monic()
    with pytest.raises(EmptyIdeal):
        rgcd([SkewPoly.zero(f16)])


def test_rgcd_common_right_factor(f16):
    rng = random.Random(59)
    tau = SkewPoly.tau_power(f16, 1)
    for _ in range(50):
        f = rand_nonzero_skew(rng, f16, 3)
        g = rgcd([tau * f, (tau * tau) * f])
        assert g == (tau * f).monic()


def test_bezout_self(f16):
    rng = random.Random(61)
    f = rand_nonzero_skew(rng, f16, 4)
    d, a, b = rgcd_bezout(f, f)
    assert a * f + b * f == d
    assert d == f.monic()


def test_rgcd_divides_and_certificates(f16):
    rng = random.Random(67)
    for _ in range(150):
        f = rand_skew(rng, f16, 5)
        g = rand_skew(rng, f16, 5)
        if not f and not g:
            continue
        d, a, b = rgcd_bezout(f, g)
        assert a * f + b * g == d
        if f:
            assert not f.rdivmod(d)[1]
        if g:
            assert not g.rdivmod(d)[1]
        # any left combination is right-divisible by the gcd
        u = rand_skew(rng, f16, 2)
        v = rand_skew(rng, f16, 2)
        assert not (u * f + v * g).rdivmod(d)[1]


def test_canonical_text(f16):
    t = f16.gen()
    w = SkewPoly(f16, [t**3 + t + f16.one, t**3 + t**2, t + f16.one, f16.one])
    assert w.text() == "(t^3+t+1)+(t^3+t^2)*tau+(t+1)*tau^2+tau^3"
