import random

import pytest

from drinfeld import (
    ALattice,
    APoly,
    ExtensionField,
    NotSublattice,
    RankError,
    RatFunc,
    lattice_index,
    poly_gcd,
)
from drinfeld.apoly import mat_det

from conftest import (
    ext_elem,
    ext_gen,
    ext_one,
    ext_zero,
    get_tower,
    mult_matrix,
    rand_apoly,
    rand_nonzero_apoly,
    ratfunc_mul,
)


def fq3():
    return get_tower("f3").fq


def fq2():
    return get_tower("f2").fq


def T(fq):
    return APoly.var(fq)


# -- polynomial arithmetic --


def test_gcd_golden_over_f3():
    fq = fq3()
    a = T(fq) ** 2 - APoly.one(fq)
    b = T(fq) - APoly.one(fq)
    assert poly_gcd(a, b) == T(fq) + APoly.const(fq, 2)  # T - 1, monic


def test_cube_of_t_plus_one_over_f2():
    fq = fq2()
    cubed = (T(fq) + APoly.one(fq)) ** 3
    assert cubed == APoly(fq, [1, 1, 1, 1])


def test_divmod_golden_over_f2():
    fq = fq2()
    f = APoly(fq, [1, 1, 0, 0, 1])
    g = APoly(fq, [1, 0, 1])
    q, r = divmod(f, g)
    assert q == APoly(fq, [1, 0, 1]) and r == T(fq)


def test_divmod_by_zero():
    fq = fq2()
    with pytest.raises(ZeroDivisionError):
        divmod(T(fq), APoly.zero(fq))


def test_powmod_matches_naive():
    rng = random.Random(29)
    fq = fq3()
    for _ in range(60):
        a = rand_apoly(rng, fq, 3)
        m = rand_nonzero_apoly(rng, fq, 3)
        k = rng.randrange(12)
        assert a.powmod(k, m) == (a**k) % m
    with pytest.raises(ZeroDivisionError):
        T(fq).powmod(2, APoly.zero(fq))


def test_negative_exponent_is_rejected():
    # m >>= 1 stays at -1, so a negative exponent used to loop forever
    fq = fq2()
    with pytest.raises(ValueError):
        T(fq).powmod(-1, APoly(fq, (1, 1, 1)))
    with pytest.raises(ValueError):
        T(fq) ** -2


def test_euclidean_identity_random():
    rng = random.Random(2)
    fq = fq3()
    for _ in range(300):
        a = rand_apoly(rng, fq, 6)
        b = rand_nonzero_apoly(rng, fq, 4)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        g = poly_gcd(a, b)
        assert g.is_monic() or (not a and not b)
        if a:
            assert not a % g
        assert not b % g


# -- lattices --


def test_hnf_identity_and_diagonal():
    fq = fq2()
    one = APoly.one(fq)
    zero = APoly.zero(fq)
    lat = ALattice.from_generators(fq, 2, [[one, zero], [zero, one]])
    assert lat == ALattice.identity(fq, 2)
    tt = T(fq)
    lat2 = ALattice.from_generators(fq, 2, [[tt, zero], [zero, tt]])
    assert lat2.cols[0][0] == tt and lat2.cols[1][1] == tt
    assert lat2.cols[1][0] == zero


def test_hnf_of_example_generators():
    fq = fq2()
    one = APoly.one(fq)
    zero = APoly.zero(fq)
    c = (T(fq) + one) ** 3
    lat = ALattice.from_generators(
        fq, 3, [[c, zero, zero], [zero, one, zero], [zero, zero, one]]
    )
    assert [lat.cols[j][j] for j in range(3)] == [c, one, one]


def test_hnf_rank_error():
    fq = fq2()
    one = APoly.one(fq)
    zero = APoly.zero(fq)
    with pytest.raises(RankError):
        ALattice.from_generators(fq, 2, [[one, zero], [one, zero]])


def test_lattice_index_basics():
    fq = fq3()
    lat = ALattice.identity(fq, 3)
    assert lattice_index(lat, lat) == RatFunc(APoly.one(fq))
    scaled = lat.scale(RatFunc(T(fq)))
    assert lattice_index(lat, scaled) == RatFunc(T(fq) ** 3)
    with pytest.raises(NotSublattice):
        lattice_index(scaled, lat)


def test_hnf_idempotence_and_span_invariance():
    rng = random.Random(9)
    fq = fq2()
    for _ in range(150):
        dim = rng.randrange(2, 4)
        gens = []
        for _ in range(dim + rng.randrange(2)):
            gens.append([rand_apoly(rng, fq, 2) for _ in range(dim)])
        try:
            lat = ALattice.from_generators(fq, dim, gens)
        except RankError:
            continue
        again = ALattice.from_generators(fq, dim, [list(c) for c in lat.cols], lat.den)
        assert again == lat
        # column operations preserve the span
        cols = [list(c) for c in lat.cols]
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i != j:
            m = rand_apoly(rng, fq, 2)
            for row in range(dim):
                cols[j][row] = cols[j][row] + m * cols[i][row]
        shuffled = ALattice.from_generators(fq, dim, cols, lat.den)
        assert shuffled == lat


def test_index_multiplicativity_random():
    rng = random.Random(13)
    fq = fq3()
    tt = T(fq)
    for _ in range(100):
        dim = 2
        big = ALattice.identity(fq, dim)
        mid = big.scale(RatFunc(rand_nonzero_apoly(rng, fq, 2).monic()))
        small = mid.scale(RatFunc(rand_nonzero_apoly(rng, fq, 2).monic()))
        full = lattice_index(big, small)
        assert full == (
            ratfunc_mul(lattice_index(big, mid), lattice_index(mid, small))
        ).monic_normalized()
        assert lattice_index(big, mid) == RatFunc(APoly.one(fq)) or mid != big
        # the index annihilates the quotient: chi * big <= small
        chi = full
        assert small.contains_lattice(big.scale(chi))


def test_membership_by_triangular_solve():
    fq = fq2()
    one = APoly.one(fq)
    zero = APoly.zero(fq)
    tt = T(fq)
    lat = ALattice.from_generators(fq, 2, [[tt, zero], [one, one]])
    assert lat.contains([tt, zero])
    assert lat.contains([one, one])
    assert not lat.contains([one, zero])


# -- the commutative extension field --


def ex38_field():
    fq = fq2()
    return ExtensionField(
        [APoly(fq, [1, 1, 0, 0, 1]), APoly.one(fq), T(fq), APoly.one(fq)]
    )


def test_norm_of_frobenius_is_char_prime_up_to_unit():
    ext = ex38_field()
    n = ext_gen(ext).norm()
    assert n.monic_normalized() == RatFunc(APoly(ext.fq, [1, 1, 0, 0, 1]))


def test_inverse_and_one():
    ext = ex38_field()
    assert ext_one(ext).inv() == ext_one(ext)
    pi = ext_gen(ext)
    assert pi * pi.inv() == ext_one(ext)
    with pytest.raises(ZeroDivisionError):
        ext_zero(ext).inv()


def test_reduced_fraction_element():
    ext = ex38_field()
    fq = ext.fq
    e3 = (ext_gen(ext) + ext_one(ext)) ** 2
    e3 = ext_elem(ext, list(e3.nums), APoly(fq, [1, 1]))
    assert e3.den == APoly(fq, [1, 1])
    assert [c.coeffs for c in e3.nums] == [(1,), (), (1,)]


def test_field_axioms_random():
    rng = random.Random(17)
    ext = ex38_field()
    fq = ext.fq

    def rand_elem():
        return ext_elem(
            ext,
            [rand_apoly(rng, fq, 2) for _ in range(ext.s)],
            rand_nonzero_apoly(rng, fq, 1),
        )

    for _ in range(80):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        if a:
            assert a * a.inv() == ext_one(ext)
        assert (a * b).norm() == ratfunc_mul(a.norm(), b.norm())


def test_regular_representation_agreement():
    # multiplication through the matrix representation agrees with mul_vecs
    rng = random.Random(19)
    ext = ex38_field()
    fq = ext.fq
    for _ in range(60):
        a = [rand_apoly(rng, fq, 2) for _ in range(ext.s)]
        b = [rand_apoly(rng, fq, 2) for _ in range(ext.s)]
        mat = mult_matrix(ext, a)
        via_matrix = []
        for i in range(ext.s):
            acc = APoly.zero(fq)
            for j in range(ext.s):
                acc = acc + mat[i][j] * b[j]
            via_matrix.append(acc)
        assert via_matrix == ext.mul_vecs(a, b)


def test_trace_newton_vs_matrix_trace():
    rng = random.Random(23)
    ext = ex38_field()
    fq = ext.fq
    for _ in range(40):
        nums = [rand_apoly(rng, fq, 2) for _ in range(ext.s)]
        elem = ext_elem(ext, list(nums))
        mat = mult_matrix(ext, list(elem.nums))
        diag = APoly.zero(fq)
        for i in range(ext.s):
            diag = diag + mat[i][i]
        assert elem.trace() == RatFunc(diag, elem.den)


def test_norm_multiplicative_against_determinant():
    ext = ex38_field()
    pi = ext_gen(ext)
    sq = pi * pi
    assert sq.norm() == ratfunc_mul(pi.norm(), pi.norm())
    # for integral elements the norm is exactly the multiplication-matrix determinant
    assert RatFunc(mat_det(mult_matrix(ext, list(pi.nums)))) == pi.norm()
    rng = random.Random(31)
    mats = []
    for _ in range(20):
        elem = ext_elem(ext, [rand_apoly(rng, ext.fq, 3) for _ in range(ext.s)])
        mat = mult_matrix(ext, list(elem.nums))
        assert RatFunc(mat_det(mat)) == elem.norm()
        mats.append(mat)
    # differential check of the determinant against sympy over GF(p)[T]
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    for fq in (fq2(), fq3()):
        for n in range(1, 6):
            mats.append([[rand_apoly(rng, fq, 3) for _ in range(n)] for _ in range(n)])
    t = sympy.Symbol("T")
    for mat in mats:
        fq = mat[0][0].fq
        ring = sympy.GF(fq.p)[t]

        def conv(a):
            return ring.from_sympy(sum((c * t**i for i, c in enumerate(a.coeffs)), sympy.Integer(0)))

        n = len(mat)
        expected = DomainMatrix([[conv(a) for a in row] for row in mat], (n, n), ring).det()
        assert conv(mat_det(mat)) == expected


def _sympy_poly(sympy, a: APoly, t):
    return sympy.Poly(list(reversed(a.coeffs)) or [0], t, modulus=a.fq.p)


def _from_sympy(fq, poly) -> APoly:
    return APoly(fq, [c % fq.p for c in reversed(poly.all_coeffs())])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_divmod_and_gcd_against_sympy(p):
    sympy = pytest.importorskip("sympy")
    from drinfeld.fields import base_field

    fq = base_field(p, 1, (0, 1))
    t = sympy.Symbol("T")
    rng = random.Random(100 + p)
    for _ in range(60):
        a = rand_apoly(rng, fq, 9)
        b = rand_nonzero_apoly(rng, fq, 5)
        # a common factor makes the gcd nontrivial
        c = rand_nonzero_apoly(rng, fq, 3)
        sa, sb, sc = (_sympy_poly(sympy, x, t) for x in (a, b, c))
        quo, rem = divmod(a, b)
        squo, srem = sympy.div(sa, sb)
        assert quo == _from_sympy(fq, squo) and rem == _from_sympy(fq, srem)
        got = poly_gcd(a * c, b * c)
        assert got == _from_sympy(fq, sympy.gcd(sa * sc, sb * sc).monic())


def test_is_separable_reads_the_derivative():
    for fq in (fq2(), fq3()):
        p = fq.p
        zero, one = APoly.zero(fq), APoly.one(fq)
        # x^p + T has derivative 0; x^p + x + T and x^(p+1) + T do not
        assert not ExtensionField([T(fq)] + [zero] * (p - 1) + [one]).is_separable()
        assert ExtensionField([T(fq), one] + [zero] * (p - 2) + [one]).is_separable()
        assert ExtensionField([T(fq)] + [zero] * p + [one]).is_separable()


# -- the table kernels over non-prime F_q, against schoolbook F_q sums --

# F_4 = F_2[y]/(y^2+y+1), F_8 = F_2[y]/(y^3+y+1), F_9 = F_3[y]/(y^2+1)
NONPRIME_FIELDS = {"f4": (2, 2, (1, 1, 1)), "f8": (2, 3, (1, 1, 0, 1)), "f9": (3, 2, (1, 0, 1))}


def _trim(c) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _ref_add(fq, a, b, sign=1):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    op = fq.add if sign > 0 else fq.sub
    return _trim(op(x, y) for x, y in zip(a, b))


def _ref_mul(fq, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = fq.add(out[i + j], fq.mul(x, y))
    return _trim(out)


def _ref_divmod(fq, a, b):
    rem, d = list(a), len(b) - 1
    quo = [0] * max(0, len(a) - d)
    inv = fq.inv(b[-1])
    for i in range(len(rem) - 1, d - 1, -1):
        c = fq.mul(rem[i], inv)
        quo[i - d] = c
        for j, y in enumerate(b):
            rem[i - d + j] = fq.sub(rem[i - d + j], fq.mul(c, y))
    return _trim(quo), _trim(rem)


def _ref_gcd(fq, a, b):
    while b:
        a, b = b, _ref_divmod(fq, a, b)[1]
    return _trim(fq.mul(fq.inv(a[-1]), x) for x in a)


def _assert_canonical(p: APoly) -> None:
    assert isinstance(p.coeffs, tuple)
    assert not p.coeffs or p.coeffs[-1] != 0


def _with_top_of(rng, fq, a: APoly, sign: int) -> APoly:
    """A polynomial whose top terms cancel against a's in a + sign * b."""
    keep = rng.randrange(1, len(a.coeffs) + 1)
    low = [rng.randrange(fq.q) for _ in range(len(a.coeffs) - keep)]
    top = a.coeffs[-keep:] if sign < 0 else tuple(fq.neg(v) for v in a.coeffs[-keep:])
    return APoly(fq, low + list(top))


@pytest.mark.parametrize("name", sorted(NONPRIME_FIELDS))
def test_kernels_match_schoolbook_over_nonprime_fq(name):
    from drinfeld.fields import base_field

    fq = base_field(*NONPRIME_FIELDS[name])
    rng = random.Random(name)
    cancelled = 0
    for _ in range(150):
        a = rand_nonzero_apoly(rng, fq, 6)
        pairs = [(a, rand_apoly(rng, fq, 6))]
        # equal and unequal lengths whose top terms cancel in the sum or difference
        pairs += [(a, _with_top_of(rng, fq, a, -1)), (a, _with_top_of(rng, fq, a, 1))]
        for x, y in pairs:
            for got, want in (
                (x + y, _ref_add(fq, x.coeffs, y.coeffs)),
                (y + x, _ref_add(fq, x.coeffs, y.coeffs)),
                (x - y, _ref_add(fq, x.coeffs, y.coeffs, -1)),
                (y - x, _ref_add(fq, y.coeffs, x.coeffs, -1)),
                (-x, _ref_add(fq, (), x.coeffs, -1)),
                (x * y, _ref_mul(fq, x.coeffs, y.coeffs)),
                (y * x, _ref_mul(fq, x.coeffs, y.coeffs)),
            ):
                _assert_canonical(got)
                assert got.coeffs == want
            cancelled += len((x - y).coeffs) < len(x.coeffs) == len(y.coeffs)
        c = rng.randrange(fq.q)
        got = a.scale(c)
        _assert_canonical(got)
        assert got.coeffs == _trim(fq.mul(c, v) for v in a.coeffs)
        got = a.monic()
        _assert_canonical(got)
        assert got.coeffs == _trim(fq.mul(fq.inv(a.lc()), v) for v in a.coeffs)
        b = rand_nonzero_apoly(rng, fq, 4)
        for num in (a, a * b, rand_apoly(rng, fq, 3)):
            quo, rem = divmod(num, b)
            _assert_canonical(quo)
            _assert_canonical(rem)
            assert (quo.coeffs, rem.coeffs) == _ref_divmod(fq, num.coeffs, b.coeffs)
    assert cancelled > 50


@pytest.mark.parametrize("name", sorted(NONPRIME_FIELDS))
def test_ratfunc_reduces_over_nonprime_fq(name):
    from drinfeld.fields import base_field

    fq = base_field(*NONPRIME_FIELDS[name])
    rng = random.Random(name)
    for _ in range(80):
        num = rand_apoly(rng, fq, 5)
        # unit denominators: 1 (no gcd is taken) and the other constants
        for c in range(1, fq.q):
            r = RatFunc(num, APoly(fq, (c,)))
            _assert_canonical(r.num)
            assert r.den.coeffs == (1,)
            assert r.num.coeffs == _trim(fq.mul(fq.inv(c), v) for v in num.coeffs)
        assert RatFunc(num) == RatFunc(num, APoly.one(fq))
        # a non-unit denominator with a common factor
        den = rand_nonzero_apoly(rng, fq, 3) * APoly(fq, (rng.randrange(fq.q), 1))
        common = rand_nonzero_apoly(rng, fq, 2)
        r = RatFunc(num * common, den * common)
        _assert_canonical(r.num)
        _assert_canonical(r.den)
        assert r.den.lc() == 1
        if num:
            assert _ref_gcd(fq, r.num.coeffs, r.den.coeffs) == (1,)
        else:
            assert r.den.coeffs == (1,)
        # r equals num / den: num * r.den = den * r.num
        assert _ref_mul(fq, num.coeffs, r.den.coeffs) == _ref_mul(fq, den.coeffs, r.num.coeffs)
