import itertools
import random
import time

import pytest

from drinfeld import (
    ALattice,
    AOrder,
    APoly,
    DrinfeldModule,
    FieldTower,
    FracIdeal,
    InseparableExtension,
    InternalError,
    NonCommutativeEndomorphisms,
    SkewPoly,
    TooLarge,
    census_isomorphism_classes,
    characteristic_roots,
    coords_in_skew_basis,
    endomorphism_ring,
    gorenstein_conductor,
    ideals_of_norm_degree,
    is_gorenstein,
    is_gorenstein_at,
    lattice_index,
    lin_equiv,
    minimal_frobenius_order,
    roots_in_k,
    trace_dual,
)
from drinfeld.apoly import mat_det, mat_identity
from drinfeld.fields import base_field
from drinfeld.orders import (
    _box_values,
    _dual_conductor,
    _exceeds,
    _hnf_filter_ideals,
    _norm_form,
    _norm_hits,
    _norm_target,
)

from conftest import ExtElem, RatFunc, coords_of, ext_elem, get_tower, integral_ideals, rand_apoly


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
    ideal = FracIdeal.from_generators(end, [c2, c3])
    return phi, end, c2, c3, ideal


def test_end_ring_rank_and_first_basis_element(ex38):
    phi, end, *_ = ex38
    assert end.s == 3
    assert end.skew_basis[0] == SkewPoly.one(phi.tower)
    for b in end.skew_basis:
        assert b * phi.phi_t == phi.phi_t * b


def test_pi_lies_in_end_lattice(ex38):
    phi, end, *_ = ex38
    pi = SkewPoly.tau_power(phi.tower, phi.n)
    coords = coords_in_skew_basis(end, pi)
    assert coords is not None


def test_index_over_minimal_order(ex38):
    phi, end, *_ = ex38
    minimal = minimal_frobenius_order(phi.profile(), phi)
    idx = lattice_index(end.pi_lattice, minimal.pi_lattice)
    assert idx == APoly(phi.tower.fq, [1, 1])
    assert end.pi_lattice.contains_lattice(minimal.pi_lattice)


def test_sqrt_T_case_is_maximal_shaped():
    f8 = get_tower("f8")
    phi = DrinfeldModule(f8, SkewPoly.tau_power(f8, 2))
    end = endomorphism_ring(phi)
    assert end.s == 2
    tau = SkewPoly.tau_power(f8, 1)
    assert coords_in_skew_basis(end, tau) is not None
    assert tau * tau == phi.phi_t  # tau plays sqrt(T)
    idx = lattice_index(end.pi_lattice, minimal_frobenius_order(phi.profile(), phi).pi_lattice)
    assert idx == APoly.var(f8.fq)


def test_end_ring_with_enlarged_constant_field():
    # phi_T = t + tau^4 over F_729: the centralizer meets k in F_9, so
    # the extraction must produce two basis elements of degree zero
    f729 = get_tower("f729")
    prime = APoly(f729.fq, [2, 1, 1])
    t = roots_in_k(f729, prime)[0]
    phi = DrinfeldModule(f729, SkewPoly(f729, [t] + [f729.zero] * 3 + [f729.one]))
    end = endomorphism_ring(phi)
    assert end.s == 4
    assert [b.degree for b in end.skew_basis] == [0, 0, 2, 2]
    theta = end.skew_basis[1].coeffs[0]
    assert theta.frobq(2) == theta and theta.frobq(1) != theta
    minimal = minimal_frobenius_order(phi.profile(), phi)
    assert lattice_index(end.pi_lattice, minimal.pi_lattice) == prime


def test_noncommutative_raises():
    f4 = get_tower("f4")
    phi = DrinfeldModule(f4, SkewPoly.tau_power(f4, 2))  # s = 1 < r = 2
    with pytest.raises(NonCommutativeEndomorphisms):
        endomorphism_ring(phi)


def test_minimal_order_equals_end_for_f2_ordinary():
    f2 = get_tower("f2")
    phi = DrinfeldModule(f2, SkewPoly(f2, [f2.zero, f2.one, f2.one]))
    end = endomorphism_ring(phi)
    assert end.pi_lattice == ALattice.identity(f2.fq, 2)


def test_unit_ideal_and_self_colon(ex38):
    phi, end, *_ = ex38
    unit = end.unit_ideal()
    assert unit.mul(unit) == unit
    assert unit.colon(unit) == unit
    ideal = ex38[4]
    assert ideal.mul(unit) == ideal


def test_example_ideal_norm_and_membership(ex38):
    phi, end, c2, c3, ideal = ex38
    tp1 = APoly(phi.tower.fq, [1, 1])
    assert ideal.norm_poly() == tp1**3
    assert ideal.contains(c2) and ideal.contains(c3)
    # chi(E/I) * E is inside I
    chi = ideal.norm_poly()
    for j in range(end.s):
        vec = [APoly.zero(end.fq)] * end.s
        vec[j] = chi
        assert ideal.contains(vec)


def test_colon_properties_random(ex38):
    phi, end, c2, c3, ideal = ex38
    rng = random.Random(107)
    unit = end.unit_ideal()
    for J in (ideal, unit):
        oi = J.colon(J)
        assert oi.contains_one()
        assert oi.lattice.contains_lattice(unit.lattice)
    # I * (E : I) <= E
    inv_like = unit.colon(ideal)
    assert unit.lattice.contains_lattice(ideal.mul(inv_like).lattice)


def _f9_end():
    # phi_T = t + tau + tau^2 over F_9
    tower = get_tower("f9")
    phi = DrinfeldModule(tower, SkewPoly(tower, [tower.gen(), tower.one, tower.one]))
    return endomorphism_ring(phi)


def _divided(ideal, a):
    """I / a, built over the denominator den(I) * a."""
    lat = ideal.lattice
    cols = [list(c) for c in lat.cols]
    return FracIdeal(ideal.order, ALattice.from_generators(lat.fq, lat.dim, cols, lat.den * a))


def test_colon_of_a_fractional_ideal():
    # (E/T : T E) = E/T^2: the products of I's basis with J's are read in
    # I's basis over I's denominator, not as numerator columns
    end = _f9_end()
    t = APoly.var(end.fq)
    unit = end.unit_ideal()
    x, y = _divided(unit, t), unit.mul_elem([t * c for c in end.one_coords])
    quot = x.colon(y)
    assert quot == _divided(unit, t**2)
    assert x.lattice.contains_lattice(quot.mul(y).lattice)


@pytest.mark.parametrize("which", ["f9", "ex38"])
def test_colon_commutes_with_dividing_the_dividend(which, ex38):
    # (I/a : J) = (I : J)/a, so also (I/a : I/a) = (I : I)
    order = _f9_end() if which == "f9" else ex38[1]
    fq = order.fq
    ideals = list(integral_ideals(order, 2))
    for a in (APoly.var(fq), APoly(fq, [1, 1]), APoly.var(fq) ** 2):
        for i in ideals:
            frac = _divided(i, a)
            assert frac.colon(frac) == i.colon(i)
            for j in ideals:
                assert frac.colon(j) == _divided(i.colon(j), a)


def test_ideal_product_commutative_associative(ex38):
    phi, end, c2, c3, ideal = ex38
    rng = random.Random(109)
    ideals = list(itertools.islice(integral_ideals(end, 2), 12))
    for _ in range(15):
        a, b, c = rng.sample(ideals, 3)
        assert a.mul(b) == b.mul(a)
        assert a.mul(b.mul(c)) == a.mul(b).mul(c)


def test_multiplicator_ring(ex38):
    phi, end, c2, c3, ideal = ex38
    unit = end.unit_ideal()
    assert unit.multiplicator_ring().pi_lattice == end.pi_lattice
    # principal ideals have multiplicator ring E
    alpha = [APoly(end.fq, [1, 1]), APoly.one(end.fq), APoly.zero(end.fq)]
    principal = unit.mul_elem(alpha)
    assert principal.multiplicator_ring().pi_lattice == end.pi_lattice
    # the example ideal's multiplicator ring contains E (recorded value: equals E)
    oi = ideal.multiplicator_ring()
    assert oi.pi_lattice.contains_lattice(end.pi_lattice)


def test_gorenstein_verdicts(ex38):
    phi, end, *_ = ex38
    tp1 = APoly(end.fq, [1, 1])
    assert not is_gorenstein_at(end, tp1)
    assert gorenstein_conductor(end) == tp1
    minimal = minimal_frobenius_order(phi.profile(), phi)
    assert is_gorenstein(minimal)
    # a prime away from the conductor is fine
    assert is_gorenstein_at(end, APoly.var(end.fq))


def test_gorenstein_requires_prime(ex38):
    _, end, *_ = ex38
    with pytest.raises(ValueError):
        is_gorenstein_at(end, APoly(end.fq, [1, 0, 1]))  # (T+1)^2 over F_2


def test_minimal_order_gorenstein_on_every_separable_profile():
    # the minimal order is monogenic, so its trace dual is principal
    # whenever the trace form is usable at all; `gorenstein_conductor`
    # answers this without ideal arithmetic, the colon oracle computes it
    checked = 0
    for name in ("f2", "f3", "f4"):
        tower = get_tower(name)
        from drinfeld import characteristic_roots, enumerate_modules

        for _, t in characteristic_roots(tower):
            for phi in enumerate_modules(tower, 2, t):
                prof = phi.profile()
                minimal = minimal_frobenius_order(prof, phi)
                if not minimal.ext.is_separable():
                    with pytest.raises(InseparableExtension):
                        trace_dual(minimal)
                    continue
                assert is_gorenstein(minimal)
                assert _colon_conductor(minimal) == gorenstein_conductor(minimal)
                checked += 1
    assert checked > 10


def test_inseparable_flagged():
    f8 = get_tower("f8")
    phi = DrinfeldModule(f8, SkewPoly.tau_power(f8, 2))  # m = x^2 + T^3, q = 2
    end = endomorphism_ring(phi)
    with pytest.raises(InseparableExtension):
        trace_dual(end)


def test_trace_dual_contains_order(ex38):
    _, end, *_ = ex38
    dual = trace_dual(end)
    assert dual.lattice.contains_lattice(end.unit_ideal().lattice)


def _random_ideals(order, rng, count):
    """Ideals generated by two random integral elements, every other one
    divided by T + 1 so that denominators occur."""
    fq = order.fq
    out = []
    while len(out) < count:
        gens = [[rand_apoly(rng, fq, 2) for _ in range(order.s)] for _ in range(2)]
        if not any(any(v) for v in gens):
            continue
        den = APoly(fq, [1, 1]) if len(out) % 2 else None
        out.append(FracIdeal.from_generators(order, gens, den))
    return out


def _elements(ideal):
    """The A-basis of ideal as reduced elements of the Frobenius field:
    the order's basis matrix times each column, over both denominators."""
    order = ideal.order
    rows, den = order.basis_matrix
    out = []
    for col in ideal.lattice.cols:
        nums = []
        for row in rows:
            acc = APoly.zero(order.fq)
            for a, c in zip(row, col):
                if a and c:
                    acc = acc + a * c
            nums.append(acc)
        out.append(ExtElem(order.ext, nums, den * ideal.lattice.den))
    return out


def _f9_minimal_orders(count):
    tower = get_tower("f9")
    rng = random.Random(11)
    out = []
    while len(out) < count:
        coeffs = [[rng.randrange(3) for _ in range(2)] for _ in range(3)]
        if not any(coeffs[-1]):
            continue
        phi = DrinfeldModule(tower, SkewPoly(tower, [tower.elem(c) for c in coeffs]))
        if not phi.profile().end_ring_commutative:
            continue
        minimal = minimal_frobenius_order(phi.profile(), phi)
        if minimal.ext.is_separable():
            out.append(minimal)
    return out


def _check_dual(ideal):
    dual = ideal.dual()
    assert dual.dual() == ideal
    # Tr pairs I with its dual into A, and perfectly: det of the pairing is a unit
    pairing = []
    for x in _elements(ideal):
        row = []
        for y in _elements(dual):
            tr = (x * y).trace()
            assert tr.is_integral()
            row.append(tr.to_apoly())
        pairing.append(row)
    assert mat_det(pairing).degree == 0


def test_dual_is_an_involution_with_perfect_trace_pairing(ex38):
    _, end, _, _, example = ex38
    rng = random.Random(7)
    for ideal in [end.unit_ideal(), example] + _random_ideals(end, rng, 6):
        _check_dual(ideal)
    for order in _f9_minimal_orders(4):
        for ideal in [order.unit_ideal()] + _random_ideals(order, rng, 3):
            _check_dual(ideal)


def _colon_conductor(order):
    """The conductor as computed before trace duality: chi(order / D (order : D))."""
    dual = trace_dual(order)
    return dual.mul(order.unit_ideal().colon(dual)).norm_poly()


@pytest.mark.parametrize("name,separable,inseparable", [("f4", 15, 1), ("f9", 138, 0)])
def test_gorenstein_conductor_matches_colon_oracle(name, separable, inseparable):
    from drinfeld import census_isomorphism_classes, characteristic_roots

    tower = get_tower(name)
    counts = [0, 0]
    for _, t in characteristic_roots(tower):
        for grp in census_isomorphism_classes(tower, 2, t).values():
            if not grp.profile_summary["commutative"]:
                continue
            for entry in grp.iso_classes:
                end = endomorphism_ring(entry.rep)
                if not end.ext.is_separable():
                    with pytest.raises(InseparableExtension):
                        gorenstein_conductor(end)
                    counts[1] += 1
                    continue
                assert gorenstein_conductor(end) == _colon_conductor(end)
                counts[0] += 1
    assert counts == [separable, inseparable]


def _minimal_orders_of_rank(name, rank, count):
    """A[pi] of `count` random modules of the given rank over a test tower
    whose Frobenius field has degree `rank` and is separable."""
    tower = get_tower(name)
    rng = random.Random(f"minimal-{name}-{rank}")
    out = []
    while len(out) < count:
        coeffs = [[rng.randrange(tower.q) for _ in range(tower.n)] for _ in range(rank)]
        phi = DrinfeldModule(tower, SkewPoly(tower, [tower.elem(c) for c in coeffs + [[1]]]))
        prof = phi.profile()
        if prof.s == rank:
            minimal = minimal_frobenius_order(prof, phi)
            if minimal.ext.is_separable():
                out.append(minimal)
    return out


@pytest.mark.parametrize("name", ["f8", "f16", "f27"])
@pytest.mark.parametrize("rank", [3, 4])
def test_minimal_order_of_higher_rank_matches_colon_oracle(name, rank):
    """A[pi] of rank 3 and 4 takes the monogenic shortcut; the colon oracle
    and the trace-dual path agree that it is Gorenstein."""
    one = APoly.one(get_tower(name).fq)
    for minimal in _minimal_orders_of_rank(name, rank, 2):
        assert minimal.pi_lattice == ALattice.identity(minimal.fq, rank)
        assert gorenstein_conductor(minimal) == one
        assert _colon_conductor(minimal) == _dual_conductor(minimal) == one


# rank-3 modules whose End ring is not Gorenstein, with its conductor
NON_GORENSTEIN_RANK3 = [
    ("f16", [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]], [1, 1]),  # ex38
    ("f8", [[0, 1, 1], [1, 1, 1], [0, 1, 1], [0, 1, 0]], [0, 1]),
    ("f8", [[0, 1, 1], [0, 1, 1], [0, 1, 0], [1, 1, 0]], [1, 1]),
    ("f16", [[0, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]], [0, 1]),
    ("f27", [[1, 2, 0], [1, 2, 0], [0, 1, 0], [2, 1, 1]], [0, 1]),
    ("f27", [[0, 1, 1], [1, 2, 0], [0, 2, 0], [2, 1, 0]], [2, 1]),
]


@pytest.mark.parametrize("name,coeffs,conductor", NON_GORENSTEIN_RANK3)
def test_gorenstein_conductor_matches_colon_oracle_rank3(name, coeffs, conductor):
    tower = get_tower(name)
    end = endomorphism_ring(DrinfeldModule(tower, SkewPoly(tower, [tower.elem(c) for c in coeffs])))
    want = APoly(end.fq, conductor)
    assert _colon_conductor(end) == gorenstein_conductor(end) == want


def test_dual_of_inseparable_order_raises():
    f8 = get_tower("f8")
    end = endomorphism_ring(DrinfeldModule(f8, SkewPoly.tau_power(f8, 2)))
    with pytest.raises(InseparableExtension):
        end.unit_ideal().dual()
    with pytest.raises(InseparableExtension):
        gorenstein_conductor(end)


def test_integral_ideal_enumeration(ex38):
    phi, end, c2, c3, ideal = ex38
    only_unit = list(integral_ideals(end, 0))
    assert only_unit == [end.unit_ideal()]
    up3 = list(integral_ideals(end, 3))
    assert ideal in up3
    seen = set()
    for J in up3:
        assert J.norm_poly().degree <= 3
        assert J.lattice not in seen
        seen.add(J.lattice)
        # E-module closure
        for j in range(end.s):
            basis_vec = [APoly.zero(end.fq)] * end.s
            basis_vec[j] = APoly.one(end.fq)
            for col in J.lattice.cols:
                assert J.contains(end.mul_coords(basis_vec, list(col)))


def test_degree_one_ideals_of_minimal_order_against_bruteforce():
    # m = x^2+x+T over F_2: enumerate index-degree-1 sublattices of A^2
    # directly and filter by stability under the companion matrix
    f2 = get_tower("f2")
    phi = DrinfeldModule(f2, SkewPoly(f2, [f2.zero, f2.one, f2.one]))
    end = endomorphism_ring(phi)
    assert end.pi_lattice == ALattice.identity(f2.fq, 2)
    prof = phi.profile()
    fq = f2.fq
    # companion action of pi on the power basis of A[pi]
    comp = [
        [APoly.zero(fq), -prof.min_poly[0]],
        [APoly.one(fq), -prof.min_poly[1]],
    ]
    brute = []
    one = APoly.one(fq)
    for d0, d1 in ((1, 0), (0, 1)):
        for diag0 in ([0, 1], [1, 1]) if d0 else ([1],):
            for diag1 in ([0, 1], [1, 1]) if d1 else ([1],):
                off_choices = [[0], [1]] if d0 == 1 else [[0]]
                for off in off_choices:
                    cols = [
                        [APoly(fq, diag0), APoly.zero(fq)],
                        [APoly(fq, off), APoly(fq, diag1)],
                    ]
                    try:
                        lat = ALattice.from_generators(fq, 2, cols)
                    except Exception:
                        continue
                    if lat.det().degree != 1:
                        continue
                    stable = all(
                        lat.contains(
                            [
                                comp[0][0] * col[0] + comp[0][1] * col[1],
                                comp[1][0] * col[0] + comp[1][1] * col[1],
                            ]
                        )
                        for col in lat.cols
                    )
                    if stable and lat not in brute:
                        brute.append(lat)
    enumerated = [J.lattice for J in integral_ideals(end, 1) if J.norm_poly().degree == 1]
    assert sorted(map(hash, brute)) == sorted(map(hash, enumerated))


def test_lin_equiv_trivial_and_principal(ex38):
    phi, end, c2, c3, ideal = ex38
    unit = end.unit_ideal()
    status, (coords, den) = lin_equiv(unit, unit)
    assert status == "yes"
    assert unit.mul_elem(coords, den) == unit
    alpha = [APoly(end.fq, [0, 1]), APoly.one(end.fq), APoly.zero(end.fq)]
    principal = unit.mul_elem(alpha)
    status, (coords, den) = lin_equiv(principal, principal.order.unit_ideal())
    assert status == "yes"
    assert unit.mul_elem(coords, den) == principal


def test_lin_equiv_distinct_classes_certified_no(ex38):
    # the non-kernel ideal of the rank-3 example fails weak equivalence
    # with the unit ideal, so inequivalence is certified
    phi, end, c2, c3, ideal = ex38
    status, _ = lin_equiv(ideal, end.unit_ideal())
    assert status == "no"


def test_lin_equiv_inequivalent_but_weakly_equivalent_is_unknown():
    # invertible non-principal ideals cannot be certified by a bounded
    # search; the tri-state answer is honest about it
    f4 = get_tower("f4")
    t = f4.zero
    base = None
    for g1 in f4.elements():
        for g2 in f4.elements():
            if not g2:
                continue
            phi = DrinfeldModule(f4, SkewPoly(f4, [t, g1, g2]))
            if phi.profile().min_poly_text() != "x^2+(T+1)*x+T^2":
                continue
            end = endomorphism_ring(phi)
            if end.pi_lattice == ALattice.identity(f4.fq, 2):
                base = phi
                break
        if base is not None:
            break
    assert base is not None
    end = endomorphism_ring(base)
    statuses = {
        lin_equiv(a, b)[0]
        for a, b in itertools.combinations(list(integral_ideals(end, 2)), 2)
    }
    assert "unknown" in statuses  # the second ideal class is invertible


def _lin_equiv_box(ideal, other, bound_deg=2):
    """lin_equiv as it ran before the norm form, kept as the reference:
    every vector of the box in lexicographic order, with the determinant
    of multiplication by u computed afresh for each candidate."""
    order = ideal.order
    if ideal == other:
        return "yes", (list(order.one_coords), APoly.one(order.fq))
    quot = ideal.colon(other)
    quot_rev = other.colon(ideal)
    if not quot.mul(quot_rev).contains_one():
        return "no", None
    s = order.s
    norm, other_norm = (RatFunc(i.lattice.det(), i.lattice.den**s) for i in (ideal, other))
    target = (norm / other_norm).monic_normalized()
    fq = order.fq
    count = fq.q ** (s * (bound_deg + 1))
    if count > 5 * 10**5:
        raise TooLarge("linear-equivalence search space beyond desk scale")
    cols = [list(c) for c in quot.lattice.cols]
    den = quot.lattice.den
    den_s = den**s
    basis_vecs = mat_identity(fq, s)
    coeff_space = list(itertools.product(range(fq.q), repeat=bound_deg + 1))
    for combo in itertools.product(coeff_space, repeat=s):
        if all(all(v == 0 for v in c) for c in combo):
            continue
        coords = [APoly.zero(fq)] * s
        for idx in range(s):
            c = APoly(fq, list(combo[idx]))
            if c:
                for m in range(s):
                    if cols[idx][m]:
                        coords[m] = coords[m] + c * cols[idx][m]
        if not any(coords):
            continue
        mult = [order.mul_coords(coords, e) for e in basis_vecs]
        if RatFunc(mat_det(mult), den_s).monic_normalized() != target:
            continue
        if other.mul_elem(coords, den) == ideal:
            return "yes", (coords, den)
    return "unknown", None


# A[pi] of ordinary modules, as (tower, phi_T coefficients, largest bound,
# statuses met). The reference walks the whole box for every pair it
# cannot settle early, so each case stops at the bound where it would
# take seconds.
LIN_EQUIV_CASES = {
    # every pair is principal from bound 1 on
    "f9-one-class": ("f9", [[0, 1], [0, 0], [1, 0]], 3, {"yes", "unknown"}),
    # some pairs fail weak equivalence
    "f9-weakly-inequivalent": ("f9", [[0, 1], [0, 0], [0, 1]], 1, {"yes", "no", "unknown"}),
    # a second ideal class: unknown at every bound
    "f9-two-classes": ("f9", [[0, 1], [0, 1], [0, 1]], 1, {"yes", "unknown"}),
    # the module of test_lin_equiv_inequivalent_but_weakly_equivalent_is_unknown
    "f4-two-classes": ("f4", [[0, 0], [0, 1], [0, 1]], 3, {"yes", "unknown"}),
    # s = 3: the norm form is a cubic in three coefficients
    "f3-rank3": ("f3", [[1], [1], [0], [1]], 1, {"yes", "unknown"}),
}


def _case_order(name):
    tower_name, coeffs, _, _ = LIN_EQUIV_CASES[name]
    tower = get_tower(tower_name)
    phi = DrinfeldModule(tower, SkewPoly(tower, [tower.elem(c) for c in coeffs]))
    return minimal_frobenius_order(phi.profile(), phi)


@pytest.mark.parametrize("name", sorted(LIN_EQUIV_CASES))
def test_lin_equiv_matches_the_box_search(name):
    # same status and same witness as the full box, at every bound
    order = _case_order(name)
    ideals = list(integral_ideals(order, 2))
    statuses = set()
    for bound in range(LIN_EQUIV_CASES[name][2] + 1):
        for a, b in itertools.combinations(ideals, 2):
            got = lin_equiv(a, b, bound)
            assert got == _lin_equiv_box(a, b, bound), (bound, a, b)
            if got[0] == "yes":
                assert b.mul_elem(*got[1]) == a
            statuses.add(got[0])
    assert statuses == LIN_EQUIV_CASES[name][3]


@pytest.mark.parametrize("name", ["f9-one-class", "f3-rank3"])
def test_norm_form_is_the_determinant(name):
    # form(c) = det of multiplication by sum c_i w_i, for any integral w_i
    order = _case_order(name)
    s, fq = order.s, order.fq
    rng = random.Random(name)
    cols = [[rand_apoly(rng, fq, 2) for _ in range(s)] for _ in range(s)]
    form = _norm_form(order, cols)
    assert len(form) == len(list(itertools.combinations_with_replacement(range(s), s)))
    for _ in range(20):
        c = [rand_apoly(rng, fq, 3) for _ in range(s)]
        u = [APoly.zero(fq)] * s
        for ci, col in zip(c, cols):
            u = [x + ci * y for x, y in zip(u, col)]
        value = APoly.zero(fq)
        for exps, coef in form.items():
            for ci, e in zip(c, exps):
                coef = coef * ci**e
            value = value + coef
        assert value == mat_det([order.mul_coords(u, e) for e in mat_identity(fq, s)])


def _norm_form_by_determinants(order, cols):
    """_norm_form as it ran before the order's norm form, kept as the
    reference: the s^s determinants det(M_sigma(r)[r]) of the row choices
    sigma over the multiplication matrices M_i of the vectors cols[i],
    collected per monomial."""
    s = order.s
    basis_vecs = mat_identity(order.fq, s)
    mats = [[order.mul_coords(w, e) for e in basis_vecs] for w in cols]
    form = {}
    for sigma in itertools.product(range(s), repeat=s):
        exps = tuple(sigma.count(i) for i in range(s))
        d = mat_det([mats[i][r] for r, i in enumerate(sigma)])
        form[exps] = form[exps] + d if exps in form else d
    return form


def _tower_order(tower_name, coeffs):
    """End(phi) for phi_T with the given coefficients."""
    tower = get_tower(tower_name)
    return endomorphism_ring(DrinfeldModule(tower, SkewPoly(tower, [tower.elem(c) for c in coeffs])))


# orders at s = 1, 2, 3 and 4; the End orders of the F_4 census members
# are not A[pi], and their bases are over the denominator T
NORM_FORM_ORDERS = {
    "f9-rank1": (1, lambda: _tower_order("f9", [[0, 1], [1, 0]])),
    "f9-one-class": (2, lambda: _case_order("f9-one-class")),
    "f4-rank2-end": (2, lambda: _tower_order("f4", [[0, 0], [0, 0], [0, 1]])),
    "f3-rank3": (3, lambda: _case_order("f3-rank3")),
    "f4-rank3-end": (3, lambda: _tower_order("f4", [[0, 0], [0, 0], [0, 0], [0, 1]])),
    "f2-rank4": (4, lambda: _tower_order("f2", [[1], [0], [0], [0], [1]])),
}


@pytest.mark.parametrize("name", sorted(NORM_FORM_ORDERS))
def test_norm_form_substitution_matches_the_determinants(name):
    # the substituted form is the s^s-determinant expansion, key for key
    # and in the same key order, zero coefficients included
    s, build = NORM_FORM_ORDERS[name]
    order = build()
    fq = order.fq
    assert order.s == s
    if name.endswith("-end"):
        assert order.basis_matrix[1].degree > 0
    rng = random.Random(name)
    identity = mat_identity(fq, s)
    # the basis itself, an HNF-shaped triangle and full random columns
    triangle = [[rand_apoly(rng, fq, 2) if m <= i else APoly.zero(fq) for m in range(s)] for i in range(s)]
    cases = [identity, triangle] + [
        [[rand_apoly(rng, fq, 2) for _ in range(s)] for _ in range(s)] for _ in range(4)
    ]
    keys = [tuple(sigma.count(i) for i in range(s)) for sigma in itertools.product(range(s), repeat=s)]
    for cols in cases:
        got = _norm_form(order, cols)
        want = _norm_form_by_determinants(order, cols)
        assert list(got.items()) == list(want.items()), cols
        assert list(got) == list(dict.fromkeys(keys))
    assert list(order.norm_form.items()) == list(_norm_form_by_determinants(order, identity).items())


def test_norm_form_is_built_once_per_order(monkeypatch):
    # validating one F_9 isogeny class takes s^s determinants, all for
    # the End order's own norm form, however many pairs lin_equiv tests
    import drinfeld.census as census
    import drinfeld.orders as orders
    from drinfeld.census import validate_ideal_class_action

    tower = get_tower("f9")
    groups = census_isomorphism_classes(tower, 2, tower.elem([2, 0]))
    group = groups["x^2+(2*T+1)*x+(2*T^2+T+2)"]
    base = next(e.rep for e in group.iso_classes if group.end(e)["is_minimal"])
    order = endomorphism_ring(base)
    assert "norm_form" not in vars(order)
    calls = {"mat_det": 0, "lin_equiv": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(orders, "mat_det", counted("mat_det", orders.mat_det))
    monkeypatch.setattr(census, "lin_equiv", counted("lin_equiv", census.lin_equiv))
    first = validate_ideal_class_action(group)
    assert calls["mat_det"] == order.s**order.s == 4
    assert calls["lin_equiv"] > 1 and "norm_form" in vars(order)
    pairs = calls["lin_equiv"]
    # a second validation reuses the form: more pairs, no determinant
    assert validate_ideal_class_action(group) == first
    assert calls == {"mat_det": 4, "lin_equiv": 2 * pairs}


def _norm_hits_unsieved(form, values, want):
    """_norm_hits as it ran before the leading-coefficient sieve, kept as
    the reference: form(c) is built for every candidate whose degree is
    not ruled out by deg c alone."""
    s = len(next(iter(form)))
    zero = APoly.zero(want.fq)
    terms = [(exps, coef) for exps, coef in form.items() if coef]
    degrees = range(-1, max(c.degree for c, _, _ in values) + 1)
    for prefix in itertools.product(values, repeat=s - 1):
        lead = next((v for _, _, v in prefix if v), 0)
        if lead > 1:
            continue
        part = [zero] * (s + 1)
        for exps, coef in terms:
            for (_, pw, _), e in zip(prefix, exps):
                if e:
                    coef = coef * pw[e]
            part[exps[-1]] = part[exps[-1]] + coef
        fits = {}
        for dc in degrees:
            tops = [p.degree + k * dc for k, p in enumerate(part) if p and (dc >= 0 or not k)]
            top = max(tops, default=-1)
            fits[dc] = top == want.degree or (top > want.degree and tops.count(top) > 1)
        for c, pw, v in values:
            if not lead and v != 1 or not fits[c.degree]:
                continue
            val = part[0]
            for k in range(1, s + 1):
                if part[k]:
                    val = val + part[k] * pw[k]
            if val.degree == want.degree and val.monic() == want:
                yield [p for p, _, _ in prefix] + [c]


def _tie_kinds(form, values, want) -> set:
    """The kinds of tie among the top terms part_k * c^k of form(c) over
    the box, each as (where the tie sits relative to want.degree, whether
    the tied terms cancel), read off the full products."""
    s = len(next(iter(form)))
    zero = APoly.zero(want.fq)
    kinds = set()
    for prefix in itertools.product(values, repeat=s - 1):
        part = [zero] * (s + 1)
        for exps, coef in form.items():
            for (_, pw, _), e in zip(prefix, exps):
                coef = coef * pw[e]
            part[exps[-1]] = part[exps[-1]] + coef
        for _, pw, _ in values:
            prods = [t for t in map(APoly.__mul__, part, pw) if t]
            top = max((t.degree for t in prods), default=-1)
            tied = [t for t in prods if t.degree == top]
            if len(tied) > 1 and top >= want.degree:
                total = sum(tied, zero)
                kinds.add(("at" if top == want.degree else "above", total.degree < top))
    return kinds


def _random_form(rng, fq, s, max_deg):
    """A degree-s form in s variables whose coefficients have random
    degrees up to max_deg, so that top terms tie often."""
    return {
        tuple(sigma.count(i) for i in range(s)): rand_apoly(rng, fq, max_deg)
        for sigma in itertools.combinations_with_replacement(range(s), s)
    }


def _want_from(rng, form, values):
    """form(c).monic() at a random c of the box, so there is a hit, or a
    random monic polynomial when form(c) = 0."""
    fq = values[0][0].fq
    c = [rng.choice(values) for _ in range(len(next(iter(form))))]
    val = APoly.zero(fq)
    for exps, coef in form.items():
        for (_, pw, _), e in zip(c, exps):
            coef = coef * pw[e]
        val = val + coef
    if not val:
        return (rand_apoly(rng, fq, 3) + APoly.var(fq) ** 4).monic()
    return val.monic()


# F_2, F_3 and F_4 = F_2[y]/(y^2+y+1), with box bounds small enough that
# the unsieved loop walks the whole box quickly
SIEVE_CASES = {
    ("f2", 2): ((2, 1, (0, 1)), 2),
    ("f2", 3): ((2, 1, (0, 1)), 1),
    ("f3", 2): ((3, 1, (0, 1)), 1),
    ("f3", 3): ((3, 1, (0, 1)), 0),
    ("f4", 2): ((2, 2, (1, 1, 1)), 1),
    ("f4", 3): ((2, 2, (1, 1, 1)), 0),
}


@pytest.mark.parametrize("case", sorted(SIEVE_CASES))
def test_norm_hits_sieve_matches_the_unsieved_loop(case):
    # same hits in the same order, over forms whose top terms tie at
    # want.degree and above it, both cancelling and not
    field, bound = SIEVE_CASES[case]
    fq, s = base_field(*field), case[1]
    values = _box_values(fq, bound, s)
    rng = random.Random(repr(case))
    kinds = set()
    hits = 0
    for _ in range(25):
        form = _random_form(rng, fq, s, 3)
        if not any(form.values()):
            continue
        want = _want_from(rng, form, values)
        got = list(_norm_hits(form, values, want))
        assert got == list(_norm_hits_unsieved(form, values, want))
        kinds |= _tie_kinds(form, values, want)
        hits += len(got)
    assert kinds == {("at", True), ("at", False), ("above", True), ("above", False)}
    assert hits > 0


def test_norm_hits_sieve_matches_the_unsieved_loop_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=120, derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(sorted(SIEVE_CASES)), st.integers(0, 2**32), st.integers(0, 4))
    def check(case, seed, max_deg):
        field, bound = SIEVE_CASES[case]
        fq, s = base_field(*field), case[1]
        values = _box_values(fq, bound, s)
        rng = random.Random(seed)
        form = _random_form(rng, fq, s, max_deg)
        hypothesis.assume(any(form.values()))
        want = _want_from(rng, form, values)
        assert list(_norm_hits(form, values, want)) == list(
            _norm_hits_unsieved(form, values, want)
        )

    check()


def test_exceeds_matches_the_power():
    for q in (2, 3, 4, 9, 16, 729):
        for e in range(25):
            for limit in (0, 1, q - 1, q, 5 * 10**5, q**e, q**e - 1):
                assert _exceeds(q, e, limit) == (q**e > limit), (q, e, limit)


def test_norm_target_clears_the_colon_denominator():
    fq = get_tower("f3").fq
    t, one = APoly.var(fq), APoly.one(fq)

    def lattice(diag, den):
        cols = [[d if i == j else APoly.zero(fq) for i in range(len(diag))] for j, d in enumerate(diag)]
        return ALattice.from_generators(fq, len(diag), cols, den)

    # N(I) / N(J) = (T(T+1) / T^4) / 1 = (T+1)/T^3; times T^4 it is T(T+1)
    ideal, unit = lattice([t, t + one], t**2), lattice([one, one], one)
    assert _norm_target(ideal, unit, t**2) == t * (t + one)
    # den^s = T^2 cannot clear T^3, so no candidate's norm matches
    assert _norm_target(ideal, unit, t) is None
    # N(I) / N(J) = 1/T at s = 3, and (T+1)^3 cannot clear T
    assert _norm_target(lattice([one] * 3, one), lattice([t, one, one], one), t + one) is None


def test_coords_of_matches_a_solve_per_element(ex38):
    # coords_of multiplies by the adjugate kept per order; solving the
    # basis matrix afresh for each element gives the same coordinates
    from drinfeld.apoly import mat_solve

    phi, end, *_ = ex38
    minimal = minimal_frobenius_order(phi.profile(), phi)
    rng = random.Random(23)
    for order in (end, minimal):
        rows, dens = order.basis_matrix
        assert order.basis_adjugate is order.basis_adjugate
        ext = order.ext
        for _ in range(15):
            nums = [APoly(order.fq, [rng.randrange(2) for _ in range(4)]) for _ in range(ext.s)]
            x = ext_elem(ext, nums, APoly(order.fq, [1, rng.randrange(2), 1]))
            det, sol = mat_solve(rows, [[v * dens] for v in x.nums])
            assert coords_of(order, x) == [RatFunc(r[0], det * x.den) for r in sol]


def test_lin_equiv_size_guard_after_weak_equivalence():
    # past the search guard a weakly inequivalent pair is still a certified
    # "no"; a weakly equivalent pair (equivalent or not) raises TooLarge
    order = _case_order("f9-weakly-inequivalent")
    ideals = list(integral_ideals(order, 2))
    big = 5  # 3^(2 * 6) candidates exceed the guard
    seen = set()
    for a, b in itertools.combinations(ideals, 2):
        status = _lin_equiv_box(a, b, 0)[0]
        seen.add(status)
        if status == "no":
            assert lin_equiv(a, b, big) == ("no", None)
        else:
            with pytest.raises(TooLarge):
                lin_equiv(a, b, big)
    assert {"yes", "no"} <= seen


def test_lin_equiv_huge_radius_raises_as_fast_as_a_large_one():
    # the size guard decides q^(s(bound+1)) > limit without building the
    # power: a radius of 10^9 raises as soon as 10^6 does on the weakly
    # equivalent pairs of an F_9 order
    order = _case_order("f9-weakly-inequivalent")
    ideals = list(integral_ideals(order, 2))
    pairs = [
        (a, b) for a, b in itertools.combinations(ideals, 2) if _lin_equiv_box(a, b, 0)[0] != "no"
    ]
    assert pairs
    times = {}
    for bound in (10**6, 10**9):
        start = time.process_time()
        for a, b in pairs:
            with pytest.raises(TooLarge, match="^linear-equivalence search space beyond desk scale$"):
                lin_equiv(a, b, bound)
        times[bound] = time.process_time() - start
    assert times[10**9] < 3 * times[10**6] + 0.5, times


@pytest.mark.parametrize("name", ["f9-one-class", "f9-weakly-inequivalent", "f9-two-classes"])
def test_lin_equiv_default_radius_is_two_where_it_fits(name):
    # q^(s * 3) = 3^6 is inside the size guard, so the derived radius is 2
    order = _case_order(name)
    for a, b in itertools.combinations(list(integral_ideals(order, 2)), 2):
        assert lin_equiv(a, b) == lin_equiv(a, b, 2)


@pytest.mark.parametrize("name", ["f9-weakly-inequivalent", "f3-rank3"])
def test_ideals_of_norm_degree_are_the_levels_of_integral_ideals(name):
    order = _case_order(name)
    levels = [list(ideals_of_norm_degree(order, d)) for d in range(3)]
    assert [J for level in levels for J in level] == list(integral_ideals(order, 2))
    for d, level in enumerate(levels):
        assert all(J.norm_poly().degree == d for J in level)
    assert levels[0] == [order.unit_ideal()]


def test_multiplication_table_is_built_on_first_use(ex38):
    from drinfeld.orders import order_from_pi_lattice

    phi, end, *_ = ex38
    fresh = order_from_pi_lattice(end.ext, end.pi_lattice)
    assert "table" not in vars(fresh) and "one_coords" not in vars(fresh)
    assert fresh == end and fresh.table == end.table
    assert fresh.one_coords == [APoly.one(end.fq), APoly.zero(end.fq), APoly.zero(end.fq)]
    # a basis that does not span a ring fails its checks when they are read
    cols = mat_identity(end.fq, 3)
    cols[2][2] = APoly.var(end.fq)  # 1, pi, T pi^2: pi * pi is missing
    not_closed = order_from_pi_lattice(end.ext, ALattice.from_generators(end.fq, 3, cols))
    with pytest.raises(InternalError):
        not_closed.table


def _validated_rank2_orders(name, roots=None):
    """End(phi) of the minimal member of every isogeny class whose ideal
    action `validate_ideal_class_action` checks, in the rank-2 census of a
    tower over every characteristic root (or the roots at the given
    indices): the orders the validator walks."""
    tower = get_tower(name)
    chosen = characteristic_roots(tower)
    if roots is not None:
        chosen = [chosen[i] for i in roots]
    orders = []
    for _, t in chosen:
        groups = census_isomorphism_classes(tower, 2, t)
        for m in sorted(groups):
            group = groups[m]
            summary = group.profile_summary
            if not summary["commutative"] or not (summary["ordinary"] or summary["d"] == summary["n"]):
                continue
            base = next(e.rep for e in group.iso_classes if group.end(e)["is_minimal"])
            orders.append(endomorphism_ring(base))
    return orders


@pytest.mark.parametrize(
    "name, roots, count, top",
    [("f9", None, 75, 3), ("f16", None, 36, 3), ("f27", None, 180, 3), ("f16e2", (0, -1), 63, 2)],
)
def test_rank2_closed_form_matches_the_hnf_filter(name, roots, count, top):
    # the same lattices in the same order as the HNF filter, on every
    # order the validator walks in odd characteristic and characteristic
    # 2, and over the non-prime F_4 (digits in its integer encoding) on a
    # degree-1 and a degree-2 root
    orders = _validated_rank2_orders(name, roots)
    assert len(orders) == count
    fq = orders[0].fq
    ideals = 0
    for order in orders:
        assert order.one_coords == [APoly.one(fq), APoly.zero(fq)]
        for d in range(top + 1):
            got = [J.lattice for J in ideals_of_norm_degree(order, d)]
            assert got == [J.lattice for J in _hnf_filter_ideals(order, d)], (order, d)
            ideals += len(got)
    assert ideals > count * (top + 1)


def _swapped_basis_order(order):
    """The order of a rank-2 `order` with basis (w, 1) for its basis
    (1, w), built from the same power coordinates: 1 is not its first
    basis vector."""
    rows, den = order.basis_matrix
    cols = [[rows[i][1] for i in range(2)], [rows[i][0] for i in range(2)]]
    return AOrder(order.ext, cols, den)


def test_rank2_order_without_leading_one_takes_the_hnf_filter():
    # basis (pi, 1): the HNF filter runs, and its ideals are the closed
    # form's ideals of the basis (1, pi), as pi-lattices
    order = _case_order("f9-two-classes")
    swapped = _swapped_basis_order(order)
    fq = order.fq
    assert swapped == order
    assert swapped.one_coords == [APoly.zero(fq), APoly.one(fq)]
    for d in range(4):
        got = [swapped.ideal_lattice_to_pi(J.lattice) for J in ideals_of_norm_degree(swapped, d)]
        want = [order.ideal_lattice_to_pi(J.lattice) for J in ideals_of_norm_degree(order, d)]
        assert len(got) == len(set(got)) and set(got) == set(want), d
        assert got == [swapped.ideal_lattice_to_pi(J.lattice) for J in _hnf_filter_ideals(swapped, d)]


def test_ideal_size_guard_fires_before_the_first_ideal():
    # q = 5, rank 2: level 4 is 5^8 candidates, within the guard; level 5
    # raises before any shape is walked, on the closed form and the filter
    tower = FieldTower(5, 1, [0, 1], 2, [2, 1, 1])
    t = tower.gen()
    phi = DrinfeldModule(tower, SkewPoly(tower, [t, tower.one, tower.one]))
    order = minimal_frobenius_order(phi.profile(), phi)
    assert order.s == 2 and order.fq.q == 5
    for o in (order, _swapped_basis_order(order)):
        assert next(ideals_of_norm_degree(o, 4)).norm_poly().degree == 4
        with pytest.raises(TooLarge):
            next(ideals_of_norm_degree(o, 5))


@pytest.mark.parametrize(
    "field, bound, s",
    [((2, 1, (0, 1)), 0, 4), ((3, 1, (0, 1)), 0, 4), ((2, 1, (0, 1)), 1, 4), ((3, 1, (0, 1)), 2, 1)],
)
def test_norm_hits_fold_matches_the_unsieved_loop_at_ranks_one_and_four(field, bound, s):
    # s = 4 folds three prefix coordinates one at a time; s = 1 has none
    fq = base_field(*field)
    values = _box_values(fq, bound, s)
    rng = random.Random(repr((field, bound, s)))
    hits = 0
    for _ in range(12):
        form = _random_form(rng, fq, s, 2)
        if not any(form.values()):
            continue
        want = _want_from(rng, form, values)
        got = list(_norm_hits(form, values, want))
        assert got == list(_norm_hits_unsieved(form, values, want))
        hits += len(got)
    assert hits > 0
