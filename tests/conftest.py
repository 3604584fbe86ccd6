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


def tower_above_table_limit() -> FieldTower:
    """F_{2^13}: past `fields._LOG_TABLE_LIMIT`, so it multiplies without
    discrete-log tables."""
    from drinfeld.fields import _LOG_TABLE_LIMIT, base_field

    tower = _TOWER_CACHE.get("f8192")
    if tower is None:
        fq = base_field(2, 1, (0, 1))
        tower = FieldTower(2, 1, [0, 1], 13, first_irreducible(fq, 13).coeffs)
        _TOWER_CACHE["f8192"] = tower
    assert tower.q**tower.n > _LOG_TABLE_LIMIT and tower._tables is None
    return tower


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


def gauss_jordan(fq, rows: list[list[int]], rhs: list[int]):
    """Dense Gauss-Jordan elimination over F_q, the solver `linalg` used
    before its sparse forward-elimination kernel: it clears each pivot
    column above and below the pivot. Returns (particular solution with
    the free variables zero, nullspace basis), or (None, nullspace basis)
    for an inconsistent system; with no rows it sees no columns either."""
    add, mul, neg = fq._add, fq._mul, fq._neg
    m = len(rows)
    nc = len(rows[0]) if m else 0
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    piv_cols: list[int] = []
    rank = 0
    for col in range(nc):
        sel = None
        for i in range(rank, m):
            if aug[i][col]:
                sel = i
                break
        if sel is None:
            continue
        aug[rank], aug[sel] = aug[sel], aug[rank]
        rp = aug[rank]
        if rp[col] != 1:
            mi = mul[fq.inv(rp[col])]
            rp = aug[rank] = [mi[v] for v in rp]
        # entries in a pivot column are never read again, so the column
        # itself is left as it is in the other rows
        support = [(j, rp[j]) for j in range(col + 1, nc + 1) if rp[j]]
        for i in range(m):
            ri = aug[i]
            c = ri[col]
            if c and i != rank:
                mc = mul[neg[c]]
                for j, v in support:
                    ri[j] = add[ri[j]][mc[v]]
        piv_cols.append(col)
        rank += 1
        if rank == m:
            break
    consistent = all(not aug[i][nc] for i in range(rank, m))
    free = [c for c in range(nc) if c not in piv_cols]
    null = []
    for fcol in free:
        vec = [0] * nc
        vec[fcol] = 1
        for i, pcol in enumerate(piv_cols):
            vec[pcol] = neg[aug[i][fcol]]
        null.append(vec)
    if not consistent:
        return None, null
    sol = [0] * nc
    for i, pcol in enumerate(piv_cols):
        sol[pcol] = aug[i][nc]
    return sol, null


def dense_rows(rows, ncols: int) -> list[list[int]]:
    """Sparse rows (lead, vals) written out on ncols columns."""
    out = []
    for lead, vals in rows:
        assert lead >= 0 and lead + len(vals) <= ncols
        out.append([0] * lead + list(vals) + [0] * (ncols - lead - len(vals)))
    return out


def assert_commutator_band(rows, n: int, r: int, cap: int) -> None:
    """Each row of `skew.commutator_system` spans exactly the columns of its
    band: degree d touches the unknowns of degrees max(0, d - r)..min(d, cap)."""
    for idx, (lead, vals) in enumerate(rows):
        d = idx // n
        assert lead == max(0, d - r) * n
        assert lead + len(vals) == (min(d, cap) + 1) * n


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
