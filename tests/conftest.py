"""Shared towers, random generators and corpus helpers."""

from __future__ import annotations

import random

import pytest

from drinfeld import (
    APoly,
    DrinfeldModule,
    FieldTower,
    Fq,
    SkewPoly,
    first_irreducible,
)

_TOWER_CACHE: dict[str, FieldTower] = {}

_SPECS = {
    "f2": (2, 1, [0, 1], 1, [1, 1]),
    "f3": (3, 1, [0, 1], 1, [1, 1]),
    "f4": (2, 1, [0, 1], 2, [1, 1, 1]),
    "f8": (2, 1, [0, 1], 3, [1, 1, 0, 1]),
    "f16": (2, 1, [0, 1], 4, [1, 1, 0, 0, 1]),
    "f9": (3, 1, [0, 1], 2, [2, 1, 1]),
    "f27": (3, 1, [0, 1], 3, None),
    "f81": (3, 1, [0, 1], 4, None),
    "f256": (2, 1, [0, 1], 8, None),
    "f729": (3, 1, [0, 1], 6, None),
    # two-step tower with e > 1: F_4 = F_2[y]/(y^2+y+1), k = F_16 over F_4
    "f16e2": (2, 2, [1, 1, 1], 2, None),
}


def get_tower(name: str) -> FieldTower:
    tower = _TOWER_CACHE.get(name)
    if tower is None:
        p, e, h, n, g = _SPECS[name]
        if g is None:
            g = list(first_irreducible(Fq(p, e, tuple(h)), n).coeffs)
        tower = FieldTower(p, e, h, n, g)
        _TOWER_CACHE[name] = tower
    return tower


@pytest.fixture(scope="session")
def f16():
    return get_tower("f16")


@pytest.fixture(scope="session")
def f9():
    return get_tower("f9")


@pytest.fixture(scope="session")
def f729():
    return get_tower("f729")


@pytest.fixture(scope="session")
def rank3_example(f16):
    """The rank-3 module over F_16 with the non-kernel ideal."""
    t = f16.gen()
    return DrinfeldModule(f16, SkewPoly(f16, [t, f16.zero, t**3, f16.one]))


def rand_kelem(rng: random.Random, tower: FieldTower):
    return tower.elem([rng.randrange(tower.q) for _ in range(tower.n)])


def rand_skew(rng: random.Random, tower: FieldTower, maxdeg: int) -> SkewPoly:
    d = rng.randrange(maxdeg + 1)
    return SkewPoly(tower, [rand_kelem(rng, tower) for _ in range(d + 1)])


def rand_nonzero_skew(rng: random.Random, tower: FieldTower, maxdeg: int) -> SkewPoly:
    while True:
        f = rand_skew(rng, tower, maxdeg)
        if f:
            return f


def ref_skew_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """The defining sum of f * g: a_i b_j^(q^i) tau^(i+j), one KElem product
    and Frobenius per term and coordinate-wise KElem sums, independent of
    the logarithm kernels of SkewPoly."""
    t = f.tower
    out = [t.zero] * (len(f.coeffs) + len(g.coeffs))
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b.frobq(i)
    return SkewPoly(t, out)


def rand_apoly(rng: random.Random, fq, maxdeg: int) -> APoly:
    d = rng.randrange(maxdeg + 1)
    return APoly(fq, [rng.randrange(fq.q) for _ in range(d + 1)])


def rand_nonzero_apoly(rng: random.Random, fq, maxdeg: int) -> APoly:
    while True:
        a = rand_apoly(rng, fq, maxdeg)
        if a:
            return a


def rand_module(rng: random.Random, tower: FieldTower, max_rank: int = 3) -> DrinfeldModule:
    r = rng.randrange(1, max_rank + 1)
    coeffs = [rand_kelem(rng, tower) for _ in range(r)]
    while True:
        top = rand_kelem(rng, tower)
        if top:
            break
    return DrinfeldModule(tower, SkewPoly(tower, coeffs + [top]))


# the censuses used by the acceptance corpus: (tower name, rank)
CENSUS_SPECS = [
    ("f2", 2),
    ("f4", 2),
    ("f3", 2),
    ("f3", 3),
]
