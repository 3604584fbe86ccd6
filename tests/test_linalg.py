"""Dense F_q linear algebra: `solve_linear`, `nullspace` and
`TrailingEchelon`.

Every system is drawn from a fixed seed, over prime fields and over
F_4 and F_9, where addition is not integer addition mod p. Products are
recomputed through the per-scalar `Fq` API, which the row kernels of
`linalg` bypass.
"""

import random

import pytest

from drinfeld import Fq
from drinfeld.linalg import TrailingEchelon, nullspace, solve_linear

FIELDS = {
    "F2": Fq(2, 1, (0, 1)),
    "F3": Fq(3, 1, (0, 1)),
    "F4": Fq(2, 2, (1, 1, 1)),
    "F9": Fq(3, 2, (1, 0, 1)),
}
CASES = 25


def mat_vec(fq, rows, x):
    out = []
    for row in rows:
        acc = 0
        for a, b in zip(row, x):
            acc = fq.add(acc, fq.mul(a, b))
        out.append(acc)
    return out


def rand_matrix(rng, fq, m, nc):
    """An m x nc matrix of rank at most a random k, as a product of random
    m x k and k x nc factors, so dependent rows and columns are common."""
    k = rng.randrange(0, min(m, nc) + 1)
    left = [[rng.randrange(fq.q) for _ in range(k)] for _ in range(m)]
    right = [[rng.randrange(fq.q) for _ in range(nc)] for _ in range(k)]
    cols = [[right[i][j] for i in range(k)] for j in range(nc)]
    return [[mat_vec(fq, [row], col)[0] for col in cols] for row in left]


def row_rank(fq, rows, nc):
    ech = TrailingEchelon(fq, nc)
    for row in rows:
        ech.insert(row)
    return ech.dim


def systems(name):
    fq = FIELDS[name]
    rng = random.Random(f"linalg-{name}")
    for _ in range(CASES):
        m, nc = rng.randrange(1, 8), rng.randrange(1, 8)
        yield fq, rng, rand_matrix(rng, fq, m, nc), nc


@pytest.mark.parametrize("name", FIELDS)
def test_solution_and_nullspace(name):
    for fq, rng, rows, nc in systems(name):
        x0 = [rng.randrange(fq.q) for _ in range(nc)]
        rhs = mat_vec(fq, rows, x0)
        sol, null = solve_linear(fq, rows, rhs)
        assert sol is not None and mat_vec(fq, rows, sol) == rhs
        for v in null:
            assert mat_vec(fq, rows, v) == [0] * len(rows)
        # the null vectors are independent and complete the rank
        assert row_rank(fq, null, nc) == len(null)
        assert row_rank(fq, rows, nc) + len(null) == nc
        assert nullspace(fq, rows, nc) == null


@pytest.mark.parametrize("name", FIELDS)
def test_inconsistent_system_returns_none(name):
    for fq, rng, rows, nc in systems(name):
        # append a row that repeats the sum of two rows, with a different
        # right-hand side: no x satisfies both
        a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
        extra = [fq.add(u, v) for u, v in zip(rows[a], rows[b])]
        rhs = [rng.randrange(fq.q) for _ in rows]
        bad = fq.add(fq.add(rhs[a], rhs[b]), 1)
        sol, null = solve_linear(fq, rows + [extra], rhs + [bad])
        assert sol is None
        assert len(null) == nc - row_rank(fq, rows, nc)


def test_nullspace_of_no_rows_is_everything():
    fq = FIELDS["F3"]
    assert nullspace(fq, [], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("name", FIELDS)
def test_trailing_echelon_pivots_at_highest_coordinate(name):
    fq = FIELDS[name]
    rng = random.Random(f"echelon-{name}")
    for _ in range(CASES):
        length = rng.randrange(1, 9)
        ech = TrailingEchelon(fq, length)
        inserted = []
        for _ in range(rng.randrange(1, 10)):
            # sparse vectors, so that low pivots and repeats both occur
            vec = [rng.randrange(fq.q) if rng.random() < 0.4 else 0 for _ in range(length)]
            residue, res_piv = ech.reduce(vec)
            piv = ech.insert(vec)
            assert piv == res_piv
            if piv < 0:
                assert not any(residue) and ech.contains(vec)
                continue
            assert residue[piv] and not any(residue[piv + 1 :])
            inserted.append(vec)
        for piv, row in ech.rows.items():
            assert row[piv] == 1 and not any(row[piv + 1 :])
        for vec in inserted:
            assert ech.contains(vec) and not any(ech.reduce(vec)[0])
        assert ech.dim == row_rank(fq, inserted, length)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_and_nullspace_against_sympy(p):
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    fq = Fq(p, 1, (0, 1))
    dom = GF(p)
    rng = random.Random(f"sympy-{p}")
    for _ in range(CASES):
        m, nc = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = rand_matrix(rng, fq, m, nc)
        _, null = solve_linear(fq, rows, [0] * m)
        ref = DomainMatrix([[dom(v) for v in row] for row in rows], (m, nc), dom)
        assert nc - len(null) == ref.rank()
        ech = TrailingEchelon(fq, nc)
        for v in null:
            ech.insert(v)
        ref_null = ref.nullspace().to_Matrix().tolist()
        assert len(ref_null) == len(null)
        for v in ref_null:
            assert ech.contains([int(c) % p for c in v])
