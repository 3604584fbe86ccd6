"""F_q linear algebra: the elimination kernel of `echelon` on sparse rows
(lead, vals), `nullspace`, the null vectors `echelon` builds on request,
and `conftest.TrailingEchelon`, the echelon of the End oracle.

`linalg` holds homogeneous systems only. A system A*x = b is solved here
by `conftest.solve_by_echelon`: one `echelon` of A with -b appended as
its last column, in the system's own format, where the system is
inconsistent exactly when that column is a pivot. The kernel reduces
rows by forward elimination inside their bands and back-substitutes; the
reduced row echelon form is unique, so it must return exactly what dense
Gauss-Jordan elimination (`conftest.gauss_jordan`, the solver it
replaced) returns: the same particular solution and the same null basis,
on random systems (dense, banded, with zero rows, inconsistent, without
rows) and on the commutator systems (`hom_system(phi_T, phi_T, cap)`) and
m(x) systems of every test tower. Over F_2 a system is its columns, each
packed into one int (`pack`), and `echelon` runs the column-elimination
kernel (`_echelon_f2`); its answers are checked against those of the
general kernel (`_echelon_fq`, run at q = 2 on the same matrix as sparse
rows) and the dense oracle, on random F_2 systems (inconsistent, with
zero and repeated columns, all columns free, none free) and on every F_2
system the library builds over the F_2 test towers and F_{2^13}: m(x),
Hom at cap n*s and at cap 0, right divisibility, colon and minimal
polynomials over F_q. Properties are checked too, with products
recomputed through the per-scalar `Fq` API, which the row kernels of
`linalg` bypass, and ranks against sympy.
"""

import random
import sys

import pytest

from drinfeld import DrinfeldModule, Fq, SkewPoly, invariants, linalg
from drinfeld.invariants import minpoly_frobenius
from drinfeld.linalg import _echelon_f2, _echelon_fq, nullspace, pack
from drinfeld.orders import centralizer_basis
from drinfeld.skew import hom_system

from conftest import (
    _SPECS,
    TrailingEchelon,
    dense_rows,
    gauss_jordan,
    get_tower,
    integral_ideals,
    rand_kelem,
    rand_module,
    read_solution,
    rhs_column_rows,
    solve_by_echelon,
    tower_above_table_limit,
)

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


def as_sparse(rows):
    """Dense rows as sparse rows that start at column 0."""
    return [(0, row) for row in rows]


def as_system(fq, rows, ncols):
    """Sparse rows (lead, vals) as the system `linalg` takes: unchanged for
    q > 2, and over F_2 the matrix's columns packed into ints."""
    if fq.q != 2:
        return rows
    return [pack(col) for col in zip(*dense_rows(rows, ncols))] or [0] * ncols


def unpack_system(fq, system, rhs, ncols):
    """The dense rows and right-hand side of a system of `linalg` (rhs
    None: zero). Over F_2 row i is bit i of the columns, up to the highest
    bit set in a column or the right-hand side."""
    if fq.q != 2:
        return dense_rows(system, ncols), rhs if rhs is not None else [0] * len(system)
    rhs = list(rhs or [])
    nrows = max([len(rhs)] + [col.bit_length() for col in system])
    rhs += [0] * (nrows - len(rhs))
    return [[col >> i & 1 for col in system] for i in range(nrows)], rhs


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
        sol, null = solve_by_echelon(fq, as_system(fq, as_sparse(rows), nc), rhs, nc)
        assert sol is not None and mat_vec(fq, rows, sol) == rhs
        for v in null:
            assert mat_vec(fq, rows, v) == [0] * len(rows)
        # the null vectors are independent and complete the rank
        assert row_rank(fq, null, nc) == len(null)
        assert row_rank(fq, rows, nc) + len(null) == nc
        assert nullspace(fq, as_system(fq, as_sparse(rows), nc), nc) == null


@pytest.mark.parametrize("name", FIELDS)
def test_inconsistent_system_returns_none(name):
    for fq, rng, rows, nc in systems(name):
        # append a row that repeats the sum of two rows, with a different
        # right-hand side: no x satisfies both
        a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
        extra = [fq.add(u, v) for u, v in zip(rows[a], rows[b])]
        rhs = [rng.randrange(fq.q) for _ in rows]
        bad = fq.add(fq.add(rhs[a], rhs[b]), 1)
        sol, null = solve_by_echelon(fq, as_system(fq, as_sparse(rows + [extra]), nc), rhs + [bad], nc)
        assert sol is None
        assert len(null) == nc - row_rank(fq, rows, nc)


def test_nullspace_of_no_rows_is_everything():
    fq = FIELDS["F3"]
    assert nullspace(fq, [], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_echelon_of_empty_systems():
    # an F_2 system with no columns, and F_q systems with no rows: every
    # column is free and its null vector is a unit vector
    assert linalg.echelon(FIELDS["F2"], [], 0)[0] == [] and nullspace(FIELDS["F2"], [], 0) == []
    for name in ("F3", "F4", "F9"):
        fq = FIELDS[name]
        assert linalg.echelon(fq, [], 0)[0] == [] and nullspace(fq, [], 0) == []
        free, null_vector = linalg.echelon(fq, [], 4)
        assert free == [0, 1, 2, 3]
        assert [null_vector(f) for f in free] == [[int(i == j) for j in range(4)] for i in range(4)]
        assert nullspace(fq, [], 4) == [null_vector(f) for f in free]


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
        null = nullspace(fq, as_system(fq, as_sparse(rows), nc), nc)
        ref = DomainMatrix([[dom(v) for v in row] for row in rows], (m, nc), dom)
        assert nc - len(null) == ref.rank()
        ech = TrailingEchelon(fq, nc)
        for v in null:
            ech.insert(v)
        ref_null = ref.nullspace().to_Matrix().tolist()
        assert len(ref_null) == len(null)
        for v in ref_null:
            assert ech.contains([int(c) % p for c in v])


# -- the kernel against dense Gauss-Jordan --

DIFF_FIELDS = {
    "F2": FIELDS["F2"],
    "F3": FIELDS["F3"],
    "F4": FIELDS["F4"],
    "F5": Fq(5, 1, (0, 1)),
}


def check_against_gauss_jordan(fq, system, rhs, ncols):
    """`solve_by_echelon`'s answer on a system of `linalg` (rhs None: zero),
    asserted equal to dense Gauss-Jordan's; its null basis is also the
    system's own `nullspace`."""
    rows, rhs = unpack_system(fq, system, rhs, ncols)
    got = solve_by_echelon(fq, system, rhs, ncols)
    assert nullspace(fq, system, ncols) == got[1]
    if rows:
        want = gauss_jordan(fq, rows, rhs)
    else:
        # without rows the oracle sees no columns: every column is free
        want = [0] * ncols, [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    assert got == want
    return got


def _random_systems():
    from hypothesis import strategies as st

    @st.composite
    def systems(draw):
        fq = DIFF_FIELDS[draw(st.sampled_from(sorted(DIFF_FIELDS)))]
        shape = draw(st.sampled_from(["dense", "banded", "zero rows", "inconsistent"]))
        ncols = draw(st.integers(1, 9))
        scalar = st.integers(0, fq.q - 1)
        rows, rhs = [], []
        for _ in range(draw(st.integers(1, 9))):
            if shape == "dense":
                lead, width = 0, ncols
            else:
                lead = draw(st.integers(0, ncols - 1))
                width = draw(st.integers(0, min(4, ncols - lead)))
            if shape == "zero rows" and draw(st.booleans()):
                vals = [0] * width
            else:
                vals = draw(st.lists(scalar, min_size=width, max_size=width))
            rows.append((lead, vals))
            rhs.append(draw(scalar))
        if shape == "inconsistent":
            # row a + c * row b with a right-hand side off by delta != 0
            a = draw(st.integers(0, len(rows) - 1))
            b = draw(st.integers(0, len(rows) - 1))
            c, delta = draw(scalar), draw(st.integers(1, fq.q - 1))
            full = dense_rows([rows[a], rows[b]], ncols)
            extra = [fq.add(u, fq.mul(c, v)) for u, v in zip(*full)]
            rows.append((0, extra))
            rhs.append(fq.add(fq.add(rhs[a], fq.mul(c, rhs[b])), delta))
        return fq, rows, rhs, ncols, shape

    return systems()


def test_kernel_matches_gauss_jordan_on_random_systems():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @hypothesis.given(_random_systems())
    def run(case):
        fq, rows, rhs, ncols, shape = case
        sol, null = check_against_gauss_jordan(fq, as_system(fq, rows, ncols), rhs, ncols)
        if shape == "inconsistent":
            assert sol is None
        for vec in null:
            assert mat_vec(fq, dense_rows(rows, ncols), vec) == [0] * len(rows)

    run()


@pytest.mark.parametrize("name", sorted(DIFF_FIELDS))
def test_kernel_without_rows(name):
    fq = DIFF_FIELDS[name]
    for ncols in range(5):
        check_against_gauss_jordan(fq, as_system(fq, [], ncols), [], ncols)


def _tower(name):
    return tower_above_table_limit() if name == "f8192" else get_tower(name)


@pytest.mark.parametrize("name", sorted(_SPECS) + ["f8192"])
def test_kernel_matches_gauss_jordan_on_tower_systems(name, monkeypatch):
    """The commutator systems of the centralizer and every m(x) system
    `minpoly_frobenius` eliminates, each as it is and with a random
    right-hand side, on each test tower and on F_{2^13}, which builds them
    without log tables."""
    tower = _tower(name)
    n = tower.n
    max_rank = 2 if n > 6 else 3
    seen = []
    rhs_rng = random.Random(f"tower-systems-rhs-{name}")

    def spy(fq, system, ncols):
        seen.append(ncols)
        check_against_gauss_jordan(fq, system, None, ncols)
        rows, _ = unpack_system(fq, system, None, ncols)
        check_against_gauss_jordan(fq, system, [rhs_rng.randrange(fq.q) for _ in rows], ncols)
        return linalg.echelon(fq, system, ncols)

    monkeypatch.setattr(invariants, "echelon", spy)
    rng = random.Random(f"tower-systems-{name}")
    for _ in range(2):
        module = rand_module(rng, tower, max_rank=max_rank)
        before = len(seen)
        minpoly_frobenius(module)
        assert len(seen) > before  # the m(x) system went through the spy
        cap = n * rng.randrange(1, module.rank + 1)
        system = hom_system(module.phi_t, module.phi_t, cap)
        ncols = (cap + 1) * n
        check_against_gauss_jordan(tower.fq, system, None, ncols)
        rhs = [rng.randrange(tower.q) for _ in range((cap + module.rank + 1) * n)]
        check_against_gauss_jordan(tower.fq, system, rhs, ncols)


@pytest.mark.parametrize("name", ["f4", "f9", "f16", "f16e2", "f27"])
def test_centralizer_solutions_are_reduced_trailing_echelon(name):
    """The null basis of the commutator system, whose vectors
    centralizer_basis builds on request: each vector is 1 at its highest
    nonzero coordinate, its pivot; pivots increase; and each vector is 0
    at the others' pivots. So a trailing echelon built from them holds
    them unchanged."""
    tower = get_tower(name)
    n = tower.n
    rng = random.Random(f"centralizer-echelon-{name}")
    for _ in range(6):
        module = rand_module(rng, tower, max_rank=3)
        s = module.profile().s
        cap = n * s
        ncols = (cap + 1) * n
        sols = nullspace(tower.fq, hom_system(module.phi_t, module.phi_t, cap), ncols)
        pivots = [max(i for i, v in enumerate(vec) if v) for vec in sols]
        assert pivots == sorted(set(pivots))
        for vec in sols:
            assert [vec[p] for p in pivots] == [int(vec is w) for w in sols]
        ech = TrailingEchelon(tower.fq, ncols)
        for vec in sols:
            ech.insert(vec)
        assert [ech.rows[p] for p in sorted(ech.rows)] == sols
        if s == module.rank:
            assert len(centralizer_basis(module, s)[0]) == s


def _f2_solved(cols, rhs, ncols):
    """A*x = b by the column kernel alone, on the packed columns of A and
    b: `conftest.read_solution` of [A | -b] (-b = b over F_2)."""
    return read_solution(_echelon_f2(cols + [pack(rhs)], ncols + 1), ncols)


def _fq_solved(fq, rows, rhs, ncols):
    """A*x = b by the general kernel alone, on the sparse rows of A with
    -b appended (`conftest.rhs_column_rows`)."""
    return read_solution(_echelon_fq(fq, rhs_column_rows(fq, rows, rhs, ncols), ncols + 1), ncols)


def _f2_banded_systems(rng, count):
    """Random banded systems over F_2: all-zero rows, rows whose vals end
    in zeros, leads that stop short of the last columns (which only the
    bands reach, or nothing), and every third system made inconsistent."""
    for idx in range(count):
        ncols = rng.randrange(1, 40)
        last_lead = rng.randrange(ncols)
        rows, rhs = [], []
        for _ in range(rng.randrange(1, 40)):
            lead = rng.randrange(last_lead + 1)
            width = rng.randrange(min(8, ncols - lead) + 1)
            kind = rng.randrange(5)
            vals = [0 if kind == 0 else rng.randrange(2) for _ in range(width)]
            if kind == 1 and width:
                k = rng.randrange(1, width + 1)
                vals[width - k :] = [0] * k
            rows.append((lead, vals))
            rhs.append(rng.randrange(2))
        if idx % 3 == 0:
            # the sum of two rows with the other right-hand side
            a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
            full = dense_rows([rows[a], rows[b]], ncols)
            rows.append((0, [u ^ v for u, v in zip(*full)]))
            rhs.append(rhs[a] ^ rhs[b] ^ 1)
        yield rows, rhs, ncols


def _check_f2_kernels(rows, rhs, ncols):
    """The column kernel on the packed columns of sparse F_2 rows, asserted
    equal to the general kernel on the rows and to dense Gauss-Jordan, and
    its null basis to the homogeneous `nullspace`; returns the answer."""
    fq = FIELDS["F2"]
    cols = as_system(fq, rows, ncols)
    got = _f2_solved(cols, rhs, ncols)
    assert got == _fq_solved(fq, rows, rhs, ncols)
    if rows:
        assert got == gauss_jordan(fq, dense_rows(rows, ncols), rhs)
    assert nullspace(fq, cols, ncols) == got[1]
    return got


def test_packed_f2_kernel_matches_general_kernel_and_oracle():
    rng = random.Random("packed-f2")
    seen = {"inconsistent": 0, "zero row": 0, "trailing zero": 0, "free tail": 0}
    for rows, rhs, ncols in _f2_banded_systems(rng, 600):
        got = _check_f2_kernels(rows, rhs, ncols)
        seen["inconsistent"] += got[0] is None
        seen["zero row"] += any(not any(vals) for _, vals in rows)
        seen["trailing zero"] += any(vals and not vals[-1] for _, vals in rows)
        seen["free tail"] += max(lead for lead, _ in rows) < ncols - 1
    assert all(seen.values()), seen


def _f2_column_systems(rng, count):
    """Random F_2 systems drawn by columns: zero columns, repeats and sums
    of earlier columns among random ones; every fourth system has only
    zero columns (all free), every fourth independent columns (none
    free), and every third right-hand side lies outside the span."""
    for idx in range(count):
        ncols, nrows = rng.randrange(0, 24), rng.randrange(1, 30)
        cols = []
        for j in range(ncols):
            kind = {1: "zero", 2: "independent"}.get(idx % 4)
            kind = kind or rng.choice(["zero", "repeat", "sum", "random", "random"])
            if kind == "independent":
                # highest bit j: independent of the columns before it
                col = [rng.randrange(2) for _ in range(j)] + [1]
            elif kind == "zero" or not cols:
                col = [0] * nrows
            elif kind == "repeat":
                col = list(rng.choice(cols))
            elif kind == "sum":
                col = [u ^ v for u, v in zip(rng.choice(cols), rng.choice(cols))]
            else:
                col = [rng.randrange(2) for _ in range(nrows)]
            cols.append(col)
        nrows = max([nrows] + [len(col) for col in cols])
        cols = [col + [0] * (nrows - len(col)) for col in cols]
        rows = [(0, list(row)) for row in zip(*cols)] or [(0, [])] * nrows
        if idx % 3 == 0:
            rhs = [rng.randrange(2) for _ in range(nrows)]
        else:
            x = [rng.randrange(2) for _ in range(ncols)]
            rhs = [sum(a & b for a, b in zip(vals, x)) & 1 for _, vals in rows]
        yield rows, rhs, ncols, cols


def test_f2_column_kernel_on_random_columns():
    rng = random.Random("f2-columns")
    seen = {"inconsistent": 0, "zero column": 0, "repeated column": 0, "all free": 0, "none free": 0}
    for rows, rhs, ncols, cols in _f2_column_systems(rng, 800):
        sol, null = _check_f2_kernels(rows, rhs, ncols)
        seen["inconsistent"] += sol is None
        seen["zero column"] += any(not any(col) for col in cols)
        seen["repeated column"] += len(set(map(tuple, cols))) < ncols
        seen["all free"] += ncols > 0 and len(null) == ncols
        seen["none free"] += ncols > 0 and not null
    assert all(seen.values()), seen


@pytest.mark.parametrize("name", ["f16", "f256"])
def test_packed_f2_kernel_matches_general_kernel_on_commutator_systems(name):
    tower = get_tower(name)
    n = tower.n
    rng = random.Random(f"packed-commutator-{name}")
    for _ in range(4):
        module = rand_module(rng, tower, max_rank=3)
        cap = n * module.rank
        cols = hom_system(module.phi_t, module.phi_t, cap)
        ncols = (cap + 1) * n
        nrows = (cap + module.rank + 1) * n
        assert len(cols) == ncols and max(cols).bit_length() <= nrows
        rows = [(0, [col >> i & 1 for col in cols]) for i in range(nrows)]
        for rhs in ([0] * nrows, [rng.randrange(2) for _ in range(nrows)]):
            assert _f2_solved(cols, rhs, ncols) == _fq_solved(tower.fq, rows, rhs, ncols)


def test_echelon_eliminates_columns_only_over_f2(monkeypatch):
    calls = []

    def spy(cols, ncols):
        calls.append(ncols)
        return _echelon_f2(cols, ncols)

    monkeypatch.setattr(linalg, "_echelon_f2", spy)
    rows = [(0, [1, 1]), (1, [1, 0])]
    for name in ("F2", "F4", "F3"):
        fq = FIELDS[name]
        assert solve_by_echelon(fq, as_system(fq, rows, 3), [1, 0], 3) == (
            gauss_jordan(fq, dense_rows(rows, 3), [1, 0])
        )
    # three columns and the right-hand side's
    assert calls == [4]


F2_TOWERS = [name for name in sorted(_SPECS) if _SPECS[name][:2] == (2, 1)] + ["f8192"]


@pytest.mark.parametrize("name", F2_TOWERS)
def test_f2_systems_of_every_builder_match_general_kernel_and_gauss_jordan(name, monkeypatch):
    """Every system that reaches `linalg` over an F_2 tower, whoever built
    it: m(x) (`minpoly_frobenius`), Hom at cap n*s (`centralizer_basis`) and at
    cap 0 (`find_isomorphism`), right divisibility (End by right
    divisibility and the annihilator of `act`), the colon of two ideals,
    and the minimal polynomial over F_q of a module's constant term. Each
    null basis of the column kernel is asserted equal to the general
    kernel's on the same matrix as sparse rows, and to dense
    Gauss-Jordan's."""
    from drinfeld import act, orders
    from drinfeld.modules import find_isomorphism

    tower = _tower(name)
    fq = tower.fq
    assert fq.q == 2
    kernel = linalg._echelon_f2
    seen: dict[str, int] = {}

    def null_basis(result):
        free, null_vector = result
        return free, [null_vector(f) for f in free]

    def spy(system, ncols):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == "drinfeld.linalg":
            frame = frame.f_back
        seen[frame.f_code.co_name] = seen.get(frame.f_code.co_name, 0) + 1
        got = kernel(system, ncols)
        rows, zeros = unpack_system(fq, system, None, ncols)
        want = null_basis(_echelon_fq(fq, as_sparse(rows), ncols))
        assert null_basis(got) == want
        if rows:
            assert want[1] == gauss_jordan(fq, rows, zeros)[1]
        return got

    monkeypatch.setattr(linalg, "_echelon_f2", spy)
    rng = random.Random(f"f2-builders-{name}")
    max_rank = 2 if tower.n > 4 else 3
    for _ in range(3):
        phi = rand_module(rng, tower, max_rank=max_rank)
        prof = phi.profile()
        c = rand_kelem(rng, tower)
        if c:
            twist = [c.inv() * a * c.frobq(i) for i, a in enumerate(phi.phi_t.coeffs)]
            psi = DrinfeldModule(tower, SkewPoly(tower, twist))
            assert find_isomorphism(phi, psi) is not None
        if prof.s != phi.rank:
            continue
        end = orders.endomorphism_ring(phi)
        f = orders.end_index_bound(end.ext)
        if f is not None:
            assert orders.end_pi_lattice(phi, f) == end.pi_lattice
        ideals = [i for i in integral_ideals(end, 1) if i.norm_poly().degree > 0][:2]
        for ideal in ideals:
            act(phi, ideal)
            assert ideal.colon(ideal).contains_one()
    want = {"minpoly_frobenius", "centralizer_basis", "find_isomorphism", "right_divisible_span", "colon"}
    want.add("minimal_poly_over_fq")
    assert want <= set(seen), seen


# -- null vectors on demand --


def _banded_systems(rng, fq, count):
    """Random banded systems over fq, as `_f2_banded_systems` draws them
    over F_2: all-zero rows, rows whose vals end in zeros, leads that stop
    short of the last columns, and every third system made inconsistent
    by a combination of two rows with another right-hand side."""
    for idx in range(count):
        ncols = rng.randrange(1, 30)
        last_lead = rng.randrange(ncols)
        rows, rhs = [], []
        for _ in range(rng.randrange(1, 30)):
            lead = rng.randrange(last_lead + 1)
            width = rng.randrange(min(6, ncols - lead) + 1)
            kind = rng.randrange(5)
            vals = [0 if kind == 0 else rng.randrange(fq.q) for _ in range(width)]
            if kind == 1 and width:
                k = rng.randrange(1, width + 1)
                vals[width - k :] = [0] * k
            rows.append((lead, vals))
            rhs.append(rng.randrange(fq.q))
        if idx % 3 == 0:
            a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
            c, delta = rng.randrange(fq.q), rng.randrange(1, fq.q)
            full = dense_rows([rows[a], rows[b]], ncols)
            rows.append((0, [fq.add(u, fq.mul(c, v)) for u, v in zip(*full)]))
            rhs.append(fq.add(fq.add(rhs[a], fq.mul(c, rhs[b])), delta))
        yield rows, rhs, ncols


@pytest.mark.parametrize("name", FIELDS)
def test_null_vectors_on_demand_match_the_null_basis(name):
    """`echelon` gives the free columns and each null vector by itself:
    they must be the pivots (highest nonzero coordinates) and the vectors
    of the null basis `solve_by_echelon` reads with any right-hand side
    appended."""
    fq = FIELDS[name]
    rng = random.Random(f"null-on-demand-{name}")
    seen = {"inconsistent": 0, "zero row": 0, "no free column": 0}
    for rows, rhs, ncols in _banded_systems(rng, fq, 300):
        system = as_system(fq, rows, ncols)
        sol, null = solve_by_echelon(fq, system, rhs, ncols)
        assert nullspace(fq, system, ncols) == null
        free, null_vector = linalg.echelon(fq, system, ncols)
        assert free == [max(i for i, v in enumerate(vec) if v) for vec in null]
        # in reverse order too: no vector depends on one built before it
        assert [null_vector(f) for f in reversed(free)] == null[::-1]
        seen["inconsistent"] += sol is None
        seen["zero row"] += any(not any(vals) for _, vals in rows)
        seen["no free column"] += not free
    assert all(seen.values()), seen


def test_null_vectors_on_demand_on_commutator_systems():
    for name in ("f4", "f16e2", "f27", "f256"):
        tower = get_tower(name)
        rng = random.Random(f"null-on-demand-commutator-{name}")
        for _ in range(3):
            module = rand_module(rng, tower, max_rank=3)
            ncols = (tower.n * module.rank + 1) * tower.n
            rows = hom_system(module.phi_t, module.phi_t, tower.n * module.rank)
            free, null_vector = linalg.echelon(tower.fq, rows, ncols)
            assert [null_vector(f) for f in free] == nullspace(tower.fq, rows, ncols)


def test_orders_nullspaces_match_gauss_jordan(monkeypatch, rank3_example):
    """The null bases `orders` solves for End by right divisibility, for
    the annihilator of `act` (both `right_divisible_span`) and
    for the colon of two ideals, each asserted equal to dense
    Gauss-Jordan's."""
    import sys

    from drinfeld import act, orders

    seen: dict[str, int] = {}

    def spy(fq, system, ncols):
        caller = sys._getframe(1).f_code.co_name
        seen[caller] = seen.get(caller, 0) + 1
        return check_against_gauss_jordan(fq, system, None, ncols)[1]

    monkeypatch.setattr(orders, "nullspace", spy)
    phi = rank3_example
    end = orders.endomorphism_ring(phi)
    f = orders.end_index_bound(end.ext)
    assert orders.end_pi_lattice(phi, f) == end.pi_lattice
    ideals = [i for i in integral_ideals(end, 2) if i.norm_poly().degree > 0][:4]
    for ideal in ideals:
        act(phi, ideal)
    for ideal in ideals[:2]:
        assert ideal.colon(ideal).contains_one()
    assert seen["right_divisible_span"] > len(ideals) and seen["colon"] >= 2, seen
