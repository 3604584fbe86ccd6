import itertools
import random

import pytest

from drinfeld import (
    APoly,
    DrinfeldModule,
    EmptyIdeal,
    FracIdeal,
    SkewPoly,
    act,
    coords_in_skew_basis,
    end_comparison,
    endomorphism_ring,
    find_isomorphism,
    same_isogeny_class,
    skew_realization,
    transport_ideal,
)

from conftest import (
    _SPECS,
    gauss_jordan,
    get_tower,
    integral_ideals,
    is_kernel_ideal,
    rand_apoly,
    rand_kelem,
)


@pytest.fixture(scope="module")
def ex38(rank3_example):
    phi = rank3_example
    end = endomorphism_ring(phi)
    tower = phi.tower
    t = tower.gen()
    e2 = SkewPoly(tower, [tower.one, tower.zero, tower.zero, tower.zero, tower.one])
    e3 = SkewPoly(
        tower,
        [t**3 + t**2 + t, tower.zero, t**3 + t**2 + tower.one, t**3 + t, t**3 + t**2, tower.one],
    )
    c2 = coords_in_skew_basis(end, e2)
    c3 = coords_in_skew_basis(end, e3)
    return phi, end, FracIdeal.from_generators(end, [c2, c3])


def test_act_unit_ideal(ex38):
    phi, end, _ = ex38
    result = act(phi, end.unit_ideal())
    assert result.u == SkewPoly.one(phi.tower)
    assert result.image == phi
    assert result.is_kernel and result.witness is None
    assert result.annihilator == end.unit_ideal()


def test_act_principal_frobenius(ex38):
    phi, end, _ = ex38
    pi = SkewPoly.tau_power(phi.tower, phi.n)
    pi_coords = coords_in_skew_basis(end, pi)
    principal = end.unit_ideal().mul_elem(pi_coords)
    result = act(phi, principal)
    assert result.u == pi
    assert result.image == phi  # coefficients are fixed by the q^n power map
    assert result.is_kernel


def test_act_example_ideal(ex38):
    phi, end, ideal = ex38
    result = act(phi, ideal)
    t = phi.tower.gen()
    w = SkewPoly(
        phi.tower, [t**3 + t + phi.tower.one, t**3 + t**2, t + phi.tower.one, phi.tower.one]
    )
    assert result.u == w
    assert same_isogeny_class(phi, result.image)
    assert not result.is_kernel
    tp1 = APoly(phi.tower.fq, [1, 1])
    assert result.witness == [tp1**2, APoly.zero(phi.tower.fq), APoly.zero(phi.tower.fq)]
    # the annihilator contains the ideal strictly
    assert result.annihilator.lattice.contains_lattice(ideal.lattice)
    assert result.annihilator != ideal
    assert result.annihilator.contains(result.witness)
    assert not ideal.contains(result.witness)


def test_skew_realization_roundtrip(ex38):
    phi, end, ideal = ex38
    for col in ideal.lattice.cols:
        sp = skew_realization(end, list(col))
        back = coords_in_skew_basis(end, sp)
        assert back == list(col)


def test_kernel_ideal_shortcut(ex38):
    phi, end, ideal = ex38
    verdict, witness = is_kernel_ideal(phi, ideal)
    assert not verdict and witness is not None


def test_zero_ideal_rejected(ex38):
    phi, end, _ = ex38
    with pytest.raises(EmptyIdeal):
        FracIdeal.from_generators(end, [[APoly.zero(end.fq)] * end.s])


def test_principal_ideal_on_maximal_order_is_kernel():
    # E = A[sqrt(T)] (maximal): principal ideals have annihilator equal
    # to themselves
    f8 = get_tower("f8")
    phi = DrinfeldModule(f8, SkewPoly.tau_power(f8, 2))
    end = endomorphism_ring(phi)
    rng = random.Random(113)
    for _ in range(5):
        coords = [rand_apoly(rng, end.fq, 2) for _ in range(end.s)]
        if not any(coords):
            continue
        principal = end.unit_ideal().mul_elem(coords)
        result = act(phi, principal)
        assert result.is_kernel
        assert result.annihilator == principal


def test_gorenstein_end_rings_have_only_kernel_ideals():
    # every ideal of the Gorenstein minimal order passes the verdict
    f2 = get_tower("f2")
    phi = DrinfeldModule(f2, SkewPoly(f2, [f2.zero, f2.one, f2.one]))
    end = endomorphism_ring(phi)
    for ideal in integral_ideals(end, 2):
        verdict, _ = is_kernel_ideal(phi, ideal)
        assert verdict


def test_principal_rescaling_preserves_image_class(ex38):
    phi, end, ideal = ex38
    rng = random.Random(127)
    base_img = act(phi, ideal).image
    for _ in range(3):
        coords = [rand_apoly(rng, end.fq, 1) for _ in range(end.s)]
        if not any(coords):
            continue
        rescaled = ideal.mul_elem(coords)
        img = act(phi, rescaled).image
        assert find_isomorphism(base_img, img) is not None


def test_end_comparison_equality_on_kernel_ideals():
    f2 = get_tower("f2")
    phi = DrinfeldModule(f2, SkewPoly(f2, [f2.zero, f2.one, f2.one]))
    for ideal in itertools.islice(integral_ideals(endomorphism_ring(phi), 2), 6):
        result = act(phi, ideal)
        report = end_comparison(result)
        assert report["contained"]
        if result.is_kernel:
            assert report["equal"]


def test_end_comparison_on_nonkernel(ex38):
    phi, end, ideal = ex38
    result = act(phi, ideal)
    report = end_comparison(result)
    assert report["contained"]  # containment holds unconditionally


def test_action_is_monoidal_up_to_isomorphism():
    # (I J) * phi is isomorphic to I' * (J * phi) with I' transported
    f4 = get_tower("f4")
    phi = None
    for g1 in f4.elements():
        for g2 in f4.elements():
            if not g2:
                continue
            cand = DrinfeldModule(f4, SkewPoly(f4, [f4.zero, g1, g2]))
            if cand.profile().min_poly_text() != "x^2+(T+1)*x+T^2":
                continue
            end = endomorphism_ring(cand)
            from drinfeld import ALattice

            if end.pi_lattice == ALattice.identity(f4.fq, 2):
                phi = cand
                break
        if phi is not None:
            break
    assert phi is not None
    end = endomorphism_ring(phi)
    ideals = [J for J in integral_ideals(end, 2) if J.norm_poly().degree >= 1][:4]
    for a, b in itertools.combinations(ideals, 2):
        left = act(phi, a.mul(b)).image
        mid = act(phi, b)
        end_mid = endomorphism_ring(mid.image)
        a_shifted = transport_ideal(a, end_mid)
        right = act(mid.image, a_shifted).image
        assert find_isomorphism(left, right) is not None


def _f9_minimal():
    # an ordinary F_9 module and A[pi], realized by the powers of tau^n
    from drinfeld import minimal_frobenius_order

    f9 = get_tower("f9")
    phi = DrinfeldModule(f9, SkewPoly(f9, [f9.elem(c) for c in ([0, 1], [0, 0], [1, 0])]))
    return phi, minimal_frobenius_order(phi.profile(), phi)


def _direct_realization(order, coords):
    module = order.module
    acc = SkewPoly.zero(module.tower)
    for c, b in zip(coords, order.skew_basis):
        if c:
            acc = acc + module(c) * b
    return acc


def _direct_annihilator(order, integral, u):
    """{w in E : u right-divides w}, from the F_q-kernel of w -> w mod u
    on the sum_j sum_(a < deg chi) c_(j,a) T^a e_j, with every
    phi_{T^a} * b_j multiplied out afresh; then re-spanned with chi E."""
    from drinfeld import ALattice
    from drinfeld.apoly import mat_identity

    module, fq, s = order.module, order.fq, order.s
    chi = integral.norm_poly()
    deg = chi.degree
    gens = [[chi * c for c in e] for e in mat_identity(fq, s)]
    if u.degree > 0 and deg > 0:
        cols = []
        for j in range(s):
            for a in range(deg):
                w = module(APoly(fq, [0] * a + [1])) * order.skew_basis[j]
                rem = w.rdivmod(u)[1]
                cols.append([v for dg in range(u.degree) for v in rem[dg].coeffs])
        rows = [list(r) for r in zip(*cols)]
        for vec in gauss_jordan(fq, rows, [0] * len(rows))[1]:
            gens.append([APoly(fq, vec[j * deg : (j + 1) * deg]) for j in range(s)])
    elif u.degree == 0:
        gens = mat_identity(fq, s)
    return FracIdeal(order, ALattice.from_generators(fq, s, gens))


def _order_cases(ex38):
    phi, end, ideal = ex38
    f9_phi, f9_order = _f9_minimal()
    yield phi, end, [ideal] + list(itertools.islice(integral_ideals(end, 1), 4))
    yield f9_phi, f9_order, list(integral_ideals(f9_order, 2))


def test_skew_terms_are_the_direct_products(ex38):
    rng = random.Random(41)
    for phi, order, _ in _order_cases(ex38):
        for j, b in enumerate(order.skew_basis):
            for a in (3, 0, 5, 1):  # grown on demand, read in any order
                assert order.skew_term(j, a) == phi.phi_t_power(a) * b
        for _ in range(8):
            coords = [rand_apoly(rng, order.fq, 3) for _ in range(order.s)]
            assert skew_realization(order, coords) == _direct_realization(order, coords)


def test_annihilator_matches_the_direct_products(ex38):
    from drinfeld import annihilator_ideal

    kinds = set()
    for phi, order, ideals in _order_cases(ex38):
        for ideal in ideals:
            result = act(phi, ideal)
            integral = ideal.scaled_integral()
            ann = annihilator_ideal(order, integral, result.u)
            assert ann == result.annihilator
            assert ann == _direct_annihilator(order, integral, result.u)
            kinds.add(result.is_kernel)
    assert kinds == {True, False}  # the rank-3 example is not a kernel ideal


def test_act_image_keeps_the_characteristic_prime(ex38):
    from drinfeld import minimal_poly_over_fq

    for phi, _, ideals in _order_cases(ex38):
        for ideal in ideals:
            image = act(phi, ideal).image
            assert image.char_prime == minimal_poly_over_fq(image.t)
            assert image.char_prime == phi.char_prime


def _commutative_module(tower, rank, rng):
    """The first random module of the rank over tower whose End is
    commutative, so `act` applies."""
    for _ in range(200):
        coeffs = [rand_kelem(rng, tower) for _ in range(rank)]
        top = rand_kelem(rng, tower)
        if not top:
            continue
        phi = DrinfeldModule(tower, SkewPoly(tower, coeffs + [top]))
        if phi.profile().s == rank:
            return phi
    raise AssertionError(f"no rank-{rank} module with commutative End over {tower}")


def _oracle_cases(phi, end, ideal):
    """(name, module, order, ideals): End of a rank-2 and a rank-3 module
    over every conftest tower, with its ideals of norm degree at most 2;
    and End and A[pi] of the rank-3 F_16 module with the non-kernel ideal,
    with their ideals of norm degree at most 3 (A[pi] has non-kernel
    ideals from norm degree 3 on)."""
    from drinfeld import minimal_frobenius_order

    rng = random.Random(307)
    for name in sorted(_SPECS):
        tower = get_tower(name)
        for rank in (2, 3):
            module = _commutative_module(tower, rank, rng)
            order = endomorphism_ring(module)
            yield name, module, order, list(integral_ideals(order, 2))
    minimal = minimal_frobenius_order(phi.profile(), phi)
    yield "ex38", phi, end, [ideal] + list(integral_ideals(end, 3))
    yield "ex38-A[pi]", phi, minimal, list(integral_ideals(minimal, 3))


def test_annihilator_on_e_mod_i_matches_the_direct_products(ex38, monkeypatch):
    """J = I + ker(E/I -> k{tau}/k{tau}u_I) against `_direct_annihilator`
    (the divisibility system on E/chi E, re-spanned with chi E): equal
    lattices, kernel verdicts and witnesses, and no lattice built for a
    kernel ideal."""
    from drinfeld import ALattice, annihilator_ideal

    built = []
    from_generators = ALattice.from_generators

    def spy(*args, **kwargs):
        built.append(args)
        return from_generators(*args, **kwargs)

    monkeypatch.setattr(ALattice, "from_generators", staticmethod(spy))
    nonkernel_orders = set()
    for name, phi, order, ideals in _oracle_cases(*ex38):
        assert ideals
        for ideal in ideals:
            result = act(phi, ideal)
            integral = ideal.scaled_integral()
            want = _direct_annihilator(order, integral, result.u)
            built.clear()
            ann = annihilator_ideal(order, integral, result.u)
            assert ann == want == result.annihilator, (name, ideal)
            assert result.is_kernel == (want == integral)
            if result.is_kernel:
                assert result.witness is None and not built, (name, ideal)
            else:
                first = next(c for c in want.lattice.cols if not integral.contains(list(c)))
                assert result.witness == list(first)
                nonkernel_orders.add(name)
    assert len(nonkernel_orders) > 1, nonkernel_orders


def test_u_must_right_divide_every_generator_of_the_ideal(ex38, monkeypatch):
    """u_J of J = T I, strictly inside I, does not right-divide every
    generator of I: `annihilator_ideal` and `act` raise InternalError
    rather than solve on E/I with it."""
    from drinfeld import InternalError, annihilator_ideal
    from drinfeld import action

    phi, end, ideal = ex38
    tt = APoly(end.fq, [0, 1])
    smaller = ideal.mul_elem([tt] + [APoly.zero(end.fq)] * (end.s - 1))
    assert ideal.lattice.contains_lattice(smaller.lattice) and smaller != ideal
    u_smaller = act(phi, smaller).u
    with pytest.raises(InternalError, match="right-divide"):
        annihilator_ideal(end, ideal, u_smaller)
    monkeypatch.setattr(action, "rgcd", lambda gens: u_smaller)
    with pytest.raises(InternalError, match="right-divide"):
        act(phi, ideal)
