"""Properties of the fraction-free A-linear-algebra kernel.

`mat_solve` is checked against a Leibniz-formula determinant and by
multiplying its solutions back; `ALattice.coords` by rebuilding vectors
from their coordinates. Every field and size is drawn from a fixed seed.
"""

import itertools
import random

import pytest

from drinfeld import ALattice, APoly, Fq
from drinfeld.apoly import mat_det, mat_identity, mat_solve

from conftest import rand_apoly, rand_nonzero_apoly

FIELDS = {
    "F2": Fq(2, 1, (0, 1)),
    "F3": Fq(3, 1, (0, 1)),
    "F4": Fq(2, 2, (1, 1, 1)),
    "F9": Fq(3, 2, (1, 0, 1)),
}
CASES = 6

field_and_size = pytest.mark.parametrize(
    "name,n", [(name, n) for name in FIELDS for n in range(1, 6)]
)


def leibniz_det(rows):
    """Reference determinant: the signed sum over all permutations."""
    n = len(rows)
    fq = rows[0][0].fq
    total = APoly.zero(fq)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = APoly.one(fq)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + (-term if inversions % 2 else term)
    return total


def mat_mul(a, b):
    zero = APoly.zero(a[0][0].fq)
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def rand_matrix(rng, fq, m, n):
    # one entry in three is zero, so pivots are often missing
    return [
        [rand_apoly(rng, fq, 2) if rng.randrange(3) else APoly.zero(fq) for _ in range(n)]
        for _ in range(m)
    ]


def rand_nonsingular(rng, fq, n):
    """P * L * U with L unit lower and U upper triangular with nonzero
    diagonal; the row permutation P forces pivoting."""
    one, zero = APoly.one(fq), APoly.zero(fq)
    low = [
        [one if i == j else rand_apoly(rng, fq, 2) if j < i else zero for j in range(n)]
        for i in range(n)
    ]
    up = [
        [
            rand_nonzero_apoly(rng, fq, 2) if i == j else rand_apoly(rng, fq, 2) if j > i else zero
            for j in range(n)
        ]
        for i in range(n)
    ]
    prod = mat_mul(low, up)
    rng.shuffle(prod)
    return prod


def rand_combination(rng, fq, rows):
    """A random A-combination of the given rows."""
    zero = APoly.zero(fq)
    coeffs = [rand_apoly(rng, fq, 2) for _ in rows]
    return [sum((c * r[j] for c, r in zip(coeffs, rows)), zero) for j in range(len(rows[0]))]


@field_and_size
def test_square_solve_is_adjugate_and_leibniz_determinant(name, n):
    rng = random.Random(f"square:{name}:{n}")
    fq = FIELDS[name]
    zero = APoly.zero(fq)
    for _ in range(CASES):
        rows = rand_matrix(rng, fq, n, n)
        d, x = mat_solve(rows, mat_identity(fq, n))
        assert d == leibniz_det(rows) == mat_det(rows)
        if d:
            assert mat_mul(rows, x) == [[d if i == j else zero for j in range(n)] for i in range(n)]
        else:
            assert x is None


@field_and_size
def test_singular_matrix_has_zero_determinant(name, n):
    rng = random.Random(f"singular:{name}:{n}")
    fq = FIELDS[name]
    for _ in range(CASES):
        rows = rand_matrix(rng, fq, n - 1, n)
        dependent = rand_combination(rng, fq, rows) if rows else [APoly.zero(fq)]
        rows.insert(rng.randrange(n), dependent)
        assert not leibniz_det(rows)
        assert mat_solve(rows, mat_identity(fq, n)) == (APoly.zero(fq), None)
        assert not mat_det(rows)


@field_and_size
def test_tall_system_solution_or_none(name, n):
    rng = random.Random(f"tall:{name}:{n}")
    fq = FIELDS[name]
    for _ in range(CASES):
        top = rand_nonsingular(rng, fq, n)
        rows = top + [rand_combination(rng, fq, top)]
        x0 = [rand_apoly(rng, fq, 2) for _ in range(n)]
        rhs = mat_mul(rows, [[v] for v in x0])
        d, x = mat_solve(rows, rhs)
        assert d and x == [[d * v] for v in x0]
        # the last equation is a combination of the others; breaking it
        # leaves no solution
        rhs[-1][0] = rhs[-1][0] + APoly.one(fq)
        assert mat_solve(rows, rhs)[1] is None


@field_and_size
def test_lattice_coords_roundtrip(name, n):
    rng = random.Random(f"coords:{name}:{n}")
    fq = FIELDS[name]
    zero = APoly.zero(fq)
    for _ in range(CASES):
        gens = rand_nonsingular(rng, fq, n) + rand_matrix(rng, fq, 1, n)
        # a non-monic denominator must still leave a monic HNF diagonal
        lat = ALattice.from_generators(fq, n, gens, rand_nonzero_apoly(rng, fq, 2))
        assert all(lat.cols[j][j].is_monic() for j in range(n))

        def vector(c):
            return [sum((c[j] * lat.cols[j][i] for j in range(n)), zero) for i in range(n)]

        coords = [rand_apoly(rng, fq, 2) for _ in range(n)]
        assert lat.coords(vector(coords), lat.den) == coords
        g = rand_nonzero_apoly(rng, fq, 2)
        assert lat.coords([v * g for v in vector(coords)], lat.den * g) == coords
        # a first coordinate of 1/T is off the lattice
        off = [APoly.one(fq)] + coords[1:]
        assert lat.coords(vector(off), lat.den * APoly.var(fq)) is None
