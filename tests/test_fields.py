import json
import random
import time

import pytest

from drinfeld import APoly, FieldTower, TooLarge, roots_in_k
from drinfeld.cli import main
from drinfeld.serialize import kelem_from_json, kelem_to_json

from conftest import get_tower, rand_kelem


def test_one_is_identity():
    rng = random.Random(7)
    for name in ("f4", "f9", "f16e2"):
        tower = get_tower(name)
        for _ in range(50):
            a = rand_kelem(rng, tower)
            assert tower.one * a == a


def test_fourth_power_of_root_in_f16(f16):
    t = f16.gen()
    assert t**4 == t + f16.one


def test_square_of_root_in_f9(f9):
    t = f9.gen()
    assert t**2 == f9.elem([1, 2])  # 2t + 1


def test_inverse_of_every_nonzero_element(f16):
    for a in f16.elements():
        if a:
            assert a * a.inv() == f16.one
    with pytest.raises(ZeroDivisionError):
        f16.zero.inv()


def test_frobenius_is_additive_and_order_n():
    rng = random.Random(11)
    for name in ("f8", "f9", "f16", "f16e2"):
        tower = get_tower(name)
        for _ in range(60):
            a, b = rand_kelem(rng, tower), rand_kelem(rng, tower)
            assert (a + b).frobq() == a.frobq() + b.frobq()
            assert (a * b).frobq() == a.frobq() * b.frobq()
            assert a.frobq(0) == a
            assert a.frobq(tower.n) == a
            # explicit exponentiation oracle
            assert a.frobq() == a ** tower.q


def test_frobenius_fixes_subfield_f9_inside_f729(f729):
    prime = APoly(f729.fq, [2, 1, 1])
    t = roots_in_k(f729, prime)[0]
    assert t.frobq(2) == t
    assert t.frobq(4) == t
    assert t.frobq(1) != t


def test_enumeration_is_exhaustive_and_unique():
    tower = get_tower("f4")
    elems = list(tower.elements())
    assert len(elems) == 4
    assert len(set(elems)) == 4


def test_roots_in_k():
    f16 = get_tower("f16")
    prime = APoly(f16.fq, [1, 1, 0, 0, 1])
    roots = roots_in_k(f16, prime)
    assert len(roots) == len(set(roots)) == 4
    for r in roots:
        assert not prime.eval_in_k(r)
    assert roots_in_k(f16, APoly.var(f16.fq)) == [f16.zero]


def test_reducible_polynomials_rejected():
    with pytest.raises(ValueError):
        FieldTower(2, 1, [0, 1], 2, [1, 0, 1])  # x^2+1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        FieldTower(2, 2, [1, 0, 1], 1, [0, 1])  # y^2+1 reducible over F_2
    with pytest.raises(ValueError):
        FieldTower(3, 3, [0, 1, 0, 1], 1, [0, 1])  # y^3+y is divisible by y
    with pytest.raises(ValueError):
        FieldTower(4, 1, [0, 1], 2, [1, 1, 1])  # p = 4 is not prime


def test_reducible_modulus_rejected_after_its_verdict_is_cached():
    from drinfeld.fields import _is_irreducible

    for _ in range(2):
        with pytest.raises(ValueError, match="reducible"):
            FieldTower(3, 1, [0, 1], 2, [2, 0, 1])  # x^2-1 = (x-1)(x+1)
    assert FieldTower(3, 1, [0, 1], 2, [2, 1, 1]).g == (2, 1, 1)
    assert _is_irreducible.cache_info().hits >= 1


def test_table_guard():
    with pytest.raises(TooLarge):
        FieldTower(1009, 1, [0, 1], 1, [0, 1])


def _sparse(n, terms):
    return [terms.get(i, 0) for i in range(n)] + [1]


# the largest towers the desk-scale guard accepts over F_2 and F_3
# (sum_{d <= n/2} q^d <= 10^6), and the first ones it refuses, each with
# an irreducible g
ACCEPTED = [(2, 37, {0: 1, 1: 1, 2: 1, 9: 1}), (3, 25, {0: 1, 3: 2})]
REFUSED = [(2, 38, {0: 1, 1: 1, 2: 1, 7: 1}), (3, 26, {0: 1, 2: 2})]


def test_boundary_moduli_are_irreducible_by_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p, n, terms in ACCEPTED + REFUSED:
        g = sympy.Poly(list(reversed(_sparse(n, terms))), x, modulus=p)
        assert g.is_irreducible


def test_tower_guard_boundary(tmp_path, capsys):
    for p, n, terms in ACCEPTED:
        start = time.process_time()
        tower = FieldTower(p, 1, [0, 1], n, _sparse(n, terms))
        assert time.process_time() - start < 1.0
        a = tower.gen() + tower.one
        assert a * a.inv() == tower.one
        assert a.frobq(n) == a
    for p, n, terms in REFUSED:
        with pytest.raises(TooLarge):
            FieldTower(p, 1, [0, 1], n, _sparse(n, terms))
        path = tmp_path / "module.json"
        field = {"p": p, "e": 1, "h": [0, 1], "n": n, "g": _sparse(n, terms)}
        path.write_text(json.dumps({"field": field, "phi_T": [[0], [1]]}))
        assert main(["analyze", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: k of degree {n} over F_{p} is beyond desk scale\n"


def test_canonical_encoding_roundtrip():
    rng = random.Random(3)
    for name in ("f16", "f16e2"):
        tower = get_tower(name)
        for _ in range(40):
            a = rand_kelem(rng, tower)
            data = kelem_to_json(tower, a)
            assert kelem_from_json(tower, data) == a
            assert kelem_to_json(tower, kelem_from_json(tower, data)) == data


def test_two_step_tower_frobenius_is_q_power_not_p_power():
    tower = get_tower("f16e2")  # q = 4
    rng = random.Random(5)
    for _ in range(30):
        a = rand_kelem(rng, tower)
        assert a.frobq() == a**4
