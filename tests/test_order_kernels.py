"""The exact-division kernels of `AOrder` (`table`, `one_coords` and the
traces of `trace_form`), and the reduced basis of the `endring` report,
against the `ExtElem`/`RatFunc` oracle of `conftest`, on the orders the
census, the CLI and the validator build."""

import pytest

from drinfeld import (
    ALattice,
    AOrder,
    APoly,
    InternalError,
    census_isomorphism_classes,
    characteristic_roots,
    endomorphism_ring,
    minimal_frobenius_order,
    order_from_pi_lattice,
)
from drinfeld import census as census_mod
from drinfeld.apoly import mat_identity
from drinfeld.census import validate_ideal_class_action
from drinfeld.serialize import module_from_json, reduced_basis

from conftest import basis_ext, get_tower, ref_one_coords, ref_table, ref_trace_form


def assert_matches_oracle(order) -> None:
    assert order.table == ref_table(order), order
    assert order.one_coords == ref_one_coords(order), order
    assert [(tuple(nums), den) for nums, den in reduced_basis(order)] == [
        (b.nums, b.den) for b in basis_ext(order)
    ], order
    if order.ext.is_separable():
        assert order.trace_form == ref_trace_form(order), order


def census_end_orders(tower, rank: int, roots) -> list:
    """The End orders an unvalidated census builds over the given
    characteristic roots t, each distinct within its isogeny class."""
    orders = []
    for t in roots:
        for group in census_isomorphism_classes(tower, rank, t).values():
            for entry in group.iso_classes:
                group.end(entry)
            orders.extend(order for order, _ in group.end_orders.values())
    return orders


def test_f16_rank2_census_orders_over_every_root():
    tower = get_tower("f16")
    roots = [x for x in tower.elements() if x]
    assert len(roots) == 15
    orders = census_end_orders(tower, 2, roots)
    # conjugate roots share their isogeny classes, so 56 orders are equal
    # as pi-lattices in one Frobenius field
    assert len(orders) == 186 and len(set(orders)) == 56
    for order in orders:
        assert_matches_oracle(order)


def test_f8_rank3_census_orders():
    tower = get_tower("f8")
    orders = census_end_orders(tower, 3, [t for _, t in characteristic_roots(tower)])
    assert len(orders) == 110
    assert sum(order.basis_matrix[1].degree > 0 for order in orders) == 44
    for order in orders:
        assert_matches_oracle(order)


def test_example_3_8_end_and_minimal_order(rank3_example):
    phi = rank3_example
    for order in (endomorphism_ring(phi), minimal_frobenius_order(phi.profile(), phi)):
        assert_matches_oracle(order)


def test_f256_rank3_centralizer_end():
    # the module of the F_256 rank-3 golden endring report
    phi = module_from_json(
        {
            "field": {"p": 2, "e": 1, "h": [0, 1], "n": 8, "g": [1, 0, 0, 0, 1, 1, 0, 1, 1]},
            "phi_T": [
                [0, 0, 0, 0, 0, 1, 1, 1],
                [1, 1, 0, 1, 1, 0, 1, 0],
                [0, 1, 1, 0, 1, 1, 0, 1],
                [1, 0, 0, 0, 0, 0, 0, 0],
            ],
        }
    )
    end = endomorphism_ring(phi)
    assert end.s == 3 and end.basis_matrix[1].degree > 0
    assert_matches_oracle(end)


def test_multiplicator_rings_of_the_f9_validator(monkeypatch):
    # O_I = (I : I) of every ideal I that the validated F_9 rank-2 census
    # acts with
    ideals = []
    real = census_mod.act
    monkeypatch.setattr(census_mod, "act", lambda phi, ideal: ideals.append(ideal) or real(phi, ideal))
    tower = get_tower("f9")
    for _, t in characteristic_roots(tower):
        for group in census_isomorphism_classes(tower, 2, t).values():
            validate_ideal_class_action(group)
    rings = {ideal.multiplicator_ring() for ideal in ideals}
    assert len(ideals) == 813 and len(rings) == 93
    assert sum(ring.basis_matrix[1].degree > 0 for ring in rings) == 18
    for ring in rings:
        assert_matches_oracle(ring)


def _scaled_minimal_order(phi, scale: APoly):
    """scale * A[pi] as an order from its pi-lattice: closed under
    products, without 1 when scale is not a unit."""
    ext = phi.profile().extension_field()
    cols = [[scale * e for e in col] for col in mat_identity(ext.fq, ext.s)]
    return order_from_pi_lattice(ext, ALattice.from_generators(ext.fq, ext.s, cols))


def test_t_times_minimal_order_lacks_one(rank3_example):
    order = _scaled_minimal_order(rank3_example, APoly.var(rank3_example.tower.fq))
    assert order.table == ref_table(order)
    with pytest.raises(InternalError, match="does not contain 1"):
        order.one_coords
    with pytest.raises(InternalError, match="does not contain 1"):
        ref_one_coords(order)


def test_non_integral_basis_trace_escapes(rank3_example):
    # A[pi] with pi^i replaced by pi^i / ell, for a degree-1 ell not
    # dividing Tr(pi^i): that trace is not in A
    phi = rank3_example
    ext = phi.profile().extension_field()
    fq = ext.fq
    i, ell = next(
        (i, ell)
        for i in range(1, ext.s)
        for ell in (APoly(fq, [0, 1]), APoly(fq, [1, 1]))
        if ext.power_sum(i) % ell
    )
    cols = [[ell * e for e in col] for col in mat_identity(fq, ext.s)]
    cols[i] = mat_identity(fq, ext.s)[i]
    order = AOrder(ext, cols, ell)
    for trace_form in (lambda: order.trace_form, lambda: ref_trace_form(order)):
        with pytest.raises(InternalError, match="trace of an integral element escaped A"):
            trace_form()


def test_singular_basis_escapes_the_span(rank3_example):
    # only a caller that passes a lattice can pair it with a singular basis
    ext = rank3_example.profile().extension_field()
    fq = ext.fq
    cols = mat_identity(fq, ext.s)
    cols[2] = cols[1]
    order = AOrder(ext, cols, APoly.one(fq), pi_lattice=ALattice.identity(fq, ext.s))
    with pytest.raises(InternalError, match="escaped the F-span"):
        order.table
    with pytest.raises(InternalError, match="does not contain 1"):
        order.one_coords
