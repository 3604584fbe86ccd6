"""Shared towers, random generators and corpus helpers."""

from __future__ import annotations

import random

import pytest

from drinfeld import (
    APoly,
    DrinfeldModule,
    FieldTower,
    Fq,
    InternalError,
    RankError,
    SkewPoly,
    act,
    first_irreducible,
    ideals_of_norm_degree,
    is_isogeny,
)
from drinfeld.apoly import mat_det, mat_identity, mat_solve, poly_gcd
from drinfeld.linalg import echelon, pack

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


def rand_unit(rng: random.Random, tower: FieldTower):
    while True:
        c = rand_kelem(rng, tower)
        if c:
            return c


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


def ref_fq_combination(tower: FieldTower, terms) -> SkewPoly:
    """sum v * S over the pairs (v, S) of terms as SkewPoly sums, one
    left_scale by the embedded scalar per term: how phi_a and skew
    realizations were evaluated before `skew.fq_combination`."""
    out = SkewPoly.zero(tower)
    for v, f in terms:
        if v:
            out = out + f.left_scale(tower.embed_fq(v))
    return out


def ref_image(phi: DrinfeldModule, a: APoly) -> SkewPoly:
    """phi_a = sum_j a_j phi_{T^j} by `ref_fq_combination`."""
    return ref_fq_combination(phi.tower, [(c, phi.phi_t_power(j)) for j, c in enumerate(a.coeffs)])


def rhs_column_rows(fq, rows, rhs: list[int], ncols: int) -> list:
    """Sparse rows (lead, vals) on ncols columns, one entry of rhs per row,
    with -rhs[i] appended to row i as column ncols."""
    assert len(rhs) == len(rows)
    out = []
    for (lead, vals), b in zip(rows, rhs):
        if b:
            vals = list(vals) + [0] * (ncols - lead - len(vals)) + [fq.neg(b)]
        out.append((lead, vals))
    return out


def with_rhs_column(fq, system, rhs: list[int], ncols: int) -> list:
    """A system of `linalg` on ncols columns with -rhs appended as column
    ncols, in the system's own format: one more packed column over F_2
    (where -b = b), and otherwise `rhs_column_rows`."""
    if fq.q == 2:
        return list(system) + [pack(rhs)]
    return rhs_column_rows(fq, system, rhs, ncols)


def read_solution(kernel, ncols: int):
    """A*x = b read off the (free, null_vector) of [A | -b] on ncols + 1
    columns: the solution that is 0 at every free column of A and A's null
    basis, in increasing order of the free columns; or None and the null
    basis when column ncols is a pivot, so that the system is
    inconsistent."""
    free, null_vector = kernel
    null = [null_vector(f)[:ncols] for f in free if f < ncols]
    if free and free[-1] == ncols:
        return null_vector(ncols)[:ncols], null
    return None, null


def solve_by_echelon(fq, system, rhs: list[int], ncols: int):
    """A*x = b for a system A of `linalg` on ncols columns and b a list with
    an entry per row, by one `echelon` of A with -b appended as its last
    column (`with_rhs_column`, `read_solution`): the answer `solve_linear`
    gave before `linalg` held homogeneous systems only."""
    return read_solution(echelon(fq, with_rhs_column(fq, system, rhs, ncols), ncols + 1), ncols)


def ladder_minpoly(phi: DrinfeldModule) -> list[APoly]:
    """m(x) by the ascending ladder over the divisors s of the rank, each
    system built from the SkewPoly columns phi_{T^j} tau^(n i) with pi^s
    on the right-hand side (`solve_by_echelon`): the first solvable degree
    wins, and it must solve uniquely. This is how `minpoly_frobenius`
    found m(x) before it read m off the first free column of one
    homogeneous system."""
    from drinfeld.skew import coefficient_system

    tower, fq = phi.tower, phi.tower.fq
    n, r = phi.n, phi.rank
    for s in (d for d in range(1, r + 1) if r % d == 0):
        bounds = [-((-(s - i) * n) // r) for i in range(s)]
        cols = [
            phi.phi_t_power(j) * SkewPoly.tau_power(tower, n * i)
            for i in range(s)
            for j in range(bounds[i] + 1)
        ]
        target = SkewPoly.tau_power(tower, n * s, -tower.one)
        height = max(c.degree for c in cols + [target]) + 1
        system = coefficient_system(cols, height)
        sol, null = solve_by_echelon(fq, system, _flatten_skew(target, height - 1), len(cols))
        if sol is None:
            continue
        assert not null, "minimal polynomial solution is not unique"
        starts = [sum(b + 1 for b in bounds[:i]) for i in range(s)]
        return [APoly(fq, sol[p : p + b + 1]) for p, b in zip(starts, bounds)] + [APoly.one(fq)]
    raise AssertionError("no annihilating polynomial found up to degree r")


class TrailingEchelon:
    """An echelon F_q-subspace whose pivots sit at the *highest* nonzero
    coordinate of each vector; each row is 1 at its pivot.

    With coordinates ordered by increasing tau-degree this makes the pivot
    position of a vector reflect its degree, which is what the degree
    ledger of `ref_end_ring` needs.
    """

    def __init__(self, fq, length: int):
        self.fq = fq
        self.length = length
        self.rows: dict[int, list[int]] = {}

    def reduce(self, vec) -> tuple[list[int], int]:
        """Residue of vec modulo the current space and its pivot (-1 if
        the residue is zero): coordinates are cleared from the top down
        until the highest nonzero one is not a pivot of the space."""
        add, mul, neg = self.fq._add, self.fq._mul, self.fq._neg
        rows = self.rows
        out = list(vec)
        for piv in range(len(out) - 1, -1, -1):
            c = out[piv]
            if not c:
                continue
            row = rows.get(piv)
            if row is None:
                return out, piv
            mc = mul[neg[c]]
            for i in range(piv):
                v = row[i]
                if v:
                    out[i] = add[out[i]][mc[v]]
            out[piv] = 0
        return out, -1

    def insert(self, vec) -> int:
        """Adjoin vec; returns its pivot index, or -1 if already contained."""
        add, mul, neg = self.fq._add, self.fq._mul, self.fq._neg
        res, piv = self.reduce(vec)
        if piv < 0:
            return -1
        if res[piv] != 1:
            mi = mul[self.fq.inv(res[piv])]
            res = [mi[v] for v in res]
        support = [(i, v) for i, v in enumerate(res[:piv]) if v]
        for other in self.rows.values():
            c = other[piv]
            if c:
                mc = mul[neg[c]]
                for i, v in support:
                    other[i] = add[other[i]][mc[v]]
                other[piv] = 0
        self.rows[piv] = res
        return piv

    def contains(self, vec) -> bool:
        return self.reduce(vec)[1] < 0

    @property
    def dim(self) -> int:
        return len(self.rows)


def _flatten_skew(sp: SkewPoly, height_deg: int) -> list[int]:
    """The F_q coordinates of sp from tau^0 up, to degree height_deg."""
    out = [v for c in sp.coeffs for v in c.coeffs]
    return out + [0] * ((height_deg + 1) * sp.tower.n - len(out))


def ref_coords_in_skew_basis(
    module: DrinfeldModule, basis: list[SkewPoly], u: SkewPoly
) -> list[APoly] | None:
    """A-coordinates of u in the skew basis of an order (`AOrder.skew_basis`),
    or None if u is not in its A-span, by one solve on the phi_{T^a} b_j
    of degree at most deg u: for End, coordinates respect degrees up to
    the cap that its build certifies. This is the separate F_q solve that
    `coords_in_skew_basis` ran before it read End's own echelon, here by
    `solve_by_echelon`."""
    from drinfeld.skew import coefficient_system

    fq = module.tower.fq
    if not u:
        return [APoly.zero(fq) for _ in basis]
    if u.degree > module.n * len(basis):
        raise InternalError("membership test beyond the verified degree cap")
    cols, owner = [], []  # owner: the basis index of each column
    for j, b in enumerate(basis):
        for a in range((u.degree - b.degree) // module.rank + 1):
            owner.append(j)
            cols.append(module.phi_t_power(a) * b)
    if not cols:
        return None
    system = coefficient_system(cols, u.degree + 1)
    sol, _ = solve_by_echelon(fq, system, _flatten_skew(u, u.degree), len(cols))
    if sol is None:
        return None
    polys: list[list[int]] = [[] for _ in basis]
    for j, v in zip(owner, sol):
        polys[j].append(v)
    return [APoly(fq, c) for c in polys]


def ref_end_ring(phi: DrinfeldModule):
    """(skew basis, basis matrix) of End(phi) by the full-vector greedy the
    End build used before it read its basis off the free columns of one
    elimination: every null vector of the system of u -> u phi_T - phi_T u
    (`hom_system(phi_T, phi_T, cap)`) is reduced in a `TrailingEchelon`
    over all (cap + 1) * n coordinates, and the coordinates of pi^i are
    solved by `ref_coords_in_skew_basis`."""
    from drinfeld.linalg import nullspace
    from drinfeld.skew import hom_system

    tower, fq = phi.tower, phi.tower.fq
    n, r, s = phi.n, phi.rank, phi.profile().s
    assert s == r, "End is not commutative"
    cap = n * s
    ncols = (cap + 1) * n
    sols = nullspace(fq, hom_system(phi.phi_t, phi.phi_t, cap), ncols)
    basis = [SkewPoly.one(tower)]
    span = TrailingEchelon(fq, ncols)
    for j in range(cap // r + 1):
        span.insert(_flatten_skew(phi.phi_t_power(j), cap))
    for vec in sols:
        res, piv = span.reduce(vec)
        if piv < 0:
            continue
        if res[piv] != 1:
            mi = fq._mul[fq.inv(res[piv])]
            res = [mi[v] for v in res]
        b = SkewPoly(tower, [tower.elem(res[d * n : d * n + n]) for d in range(cap + 1)])
        basis.append(b)
        for j in range((cap - b.degree) // r + 1):
            span.insert(_flatten_skew(phi.phi_t_power(j) * b, cap))
    assert len(basis) == s and span.dim == len(sols)
    p_rows = [ref_coords_in_skew_basis(phi, basis, SkewPoly.tau_power(tower, n * i)) for i in range(s)]
    p_t = [[p_rows[j][i] for j in range(s)] for i in range(s)]
    det, adj_t = mat_solve(p_t, mat_identity(fq, s))
    assert det
    return basis, ([list(row) for row in adj_t], det)


def ref_hnf_reduce(fq, dim: int, gens: list[list[APoly]]) -> list[list[APoly]]:
    """Column-style HNF by the loop `lattices._hnf_reduce` used first:
    per row, the two active columns of highest degree there are reduced
    one against the other, over every row, until one column is left."""
    work = [list(g) for g in gens if any(g)]
    placed: list[list[APoly] | None] = [None] * dim
    for row in range(dim - 1, -1, -1):
        active = [c for c in work if c[row]]
        while len(active) > 1:
            active.sort(key=lambda c: c[row].degree, reverse=True)
            a, b = active[0], active[1]
            q, _ = divmod(a[row], b[row])
            for i in range(dim):
                a[i] = a[i] - q * b[i]
            if not a[row]:
                active = [c for c in active if c[row]]
        if not active:
            raise RankError(f"generators do not span rank {dim} at row {row}")
        piv = active[0]
        work = [c for c in work if c is not piv]
        inv = fq.inv(piv[row].lc())
        if inv != 1:
            piv = [c.scale(inv) for c in piv]
        placed[row] = piv
    cols = [list(placed[j]) for j in range(dim)]
    for j in range(dim):
        for i in range(j - 1, -1, -1):
            q, _ = divmod(cols[j][i], cols[i][i])
            if q:
                for m in range(i + 1):
                    cols[j][m] = cols[j][m] - q * cols[i][m]
    return cols


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


def assert_hom_band(system, n: int, r: int, cap: int) -> None:
    """`skew.hom_system` keeps to its band, for r the larger degree of its
    two skew polynomials: each sparse row of degree d spans exactly the
    unknowns of degrees max(0, d - r)..min(d, cap), and over F_2 the column
    of an unknown of degree i has no bit outside the degrees i..i + r."""
    if isinstance(system[0], int):
        assert len(system) == (cap + 1) * n
        for k, col in enumerate(system):
            i = k // n
            assert col >> (i + r + 1) * n == 0 and col & ((1 << i * n) - 1) == 0
        return
    assert len(system) == (cap + r + 1) * n
    for idx, (lead, vals) in enumerate(system):
        d = idx // n
        assert lead == max(0, d - r) * n
        assert lead + len(vals) == (min(d, cap) + 1) * n


def hom_columns(system, n: int, r: int, cap: int) -> list[list[int]]:
    """The columns of `skew.hom_system(f, g, cap)` written out densely, one
    entry per row d*n + m up to degree cap + r, after `assert_hom_band`:
    read off the sparse rows, or over F_2 off the bits of each column."""
    assert_hom_band(system, n, r, cap)
    height = (cap + r + 1) * n
    if isinstance(system[0], int):
        return [[col >> b & 1 for b in range(height)] for col in system]
    return [list(col) for col in zip(*dense_rows(system, (cap + 1) * n))]


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


def twist(phi: DrinfeldModule, c) -> DrinfeldModule:
    """The isomorphic module c phi c^{-1}; g_i maps to c^(1-q^i) g_i:
    the isomorphism oracle of the twist-orbit and isomorphism tests."""
    if not c:
        raise ZeroDivisionError("twist by zero")
    cinv = c.inv()
    coeffs = []
    for i in range(phi.rank + 1):
        g = phi.phi_t[i]
        coeffs.append(c * g * cinv.frobq(i) if g else g)
    # twisting fixes t, so the characteristic prime carries over
    return DrinfeldModule.with_char_prime(phi.tower, SkewPoly(phi.tower, coeffs), phi.char_prime)


def search_isomorphism(phi: DrinfeldModule, psi: DrinfeldModule):
    """The first c of k^x, in the order of `FieldTower.elements`, with
    c phi_T = psi_T c, or None: the exhaustive search `find_isomorphism`
    ran before it solved the Hom system of degree 0, one skew product
    per element of k."""
    if phi.rank != psi.rank:
        return None
    for c in phi.tower.elements():
        if c and is_isogeny(SkewPoly(phi.tower, (c,)), phi, psi):
            return c
    return None


HOM_PAIR_KINDS = ("twisted", "isogenous", "f_j zero", "g_j zero", "unrelated")


def hom_pair(rng: random.Random, tower: FieldTower, kind: str, max_rank: int = 3):
    """(f, g), two skew polynomials of positive degree for `hom_system`:
    "twisted" g = c f c^{-1}; "isogenous" g = f with every coefficient
    raised to the q, so that tau f = g tau; "f_j zero" and "g_j zero" two
    polynomials of one degree with every coefficient nonzero but one,
    zero on one side only; "unrelated" two random ones of random degrees,
    so that the larger one has terms the other lacks."""
    r = rng.randrange(1, max_rank + 1)
    if kind == "unrelated":
        return rand_module(rng, tower, max_rank).phi_t, rand_module(rng, tower, max_rank).phi_t
    f = SkewPoly(tower, [rand_unit(rng, tower) for _ in range(r + 1)])
    if kind == "twisted":
        return f, twist(DrinfeldModule(tower, f), rand_unit(rng, tower)).phi_t
    if kind == "isogenous":
        return f, SkewPoly(tower, [c.frobq(1) for c in f.coeffs])
    g = SkewPoly(tower, [rand_unit(rng, tower) for _ in range(r + 1)])
    j = rng.randrange(r)

    def zeroed(h: SkewPoly) -> SkewPoly:
        return SkewPoly(tower, h.coeffs[:j] + (tower.zero,) + h.coeffs[j + 1 :])

    return (zeroed(f), g) if kind == "f_j zero" else (f, zeroed(g))


def walk_twist_orbits(tower: FieldTower, rank: int, t) -> list[tuple[tuple, int]]:
    """(key, size) of every twist orbit of the census modules with constant
    term t, by the candidate walk the census ran before its closed form:
    the first unvisited candidate of each orbit has the whole orbit built
    from the distinct multiplier vectors (c^(1-q), ..., c^(1-q^rank)) over
    c in k^x, every member is marked visited, and the key is the orbit's
    lexicographic minimum."""
    from drinfeld.census import _candidate_vectors

    multipliers = {}
    for c in tower.elements():
        if c:
            cinv = c.inv()
            vec = tuple(c * cinv.frobq(i) for i in range(1, rank + 1))
            multipliers.setdefault(tuple(u.coeffs for u in vec), vec)
    visited: set[tuple] = set()
    out = []
    for coeffs in _candidate_vectors(tower, rank, t):
        if tuple(c.coeffs for c in coeffs) in visited:
            continue
        orbit = {
            (t.coeffs,) + tuple((u * g).coeffs for u, g in zip(units, coeffs[1:]))
            for units in multipliers.values()
        }
        out.append((min(orbit), len(orbit)))
        visited.update(orbit)
    return out


# the censuses used by the acceptance corpus: (tower name, rank)
CENSUS_SPECS = [
    ("f2", 2),
    ("f4", 2),
    ("f3", 2),
    ("f3", 3),
]


def integral_ideals(order, max_norm_deg: int):
    """Every integral ideal I with deg chi(order/I) <= max_norm_deg,
    exactly once: by norm degree, each degree as `ideals_of_norm_degree`
    lists it."""
    for total in range(max_norm_deg + 1):
        yield from ideals_of_norm_degree(order, total)


def is_kernel_ideal(phi: DrinfeldModule, ideal) -> tuple:
    """The kernel verdict of `act` on an integral ideal, with its
    witness (None for a kernel ideal)."""
    res = act(phi, ideal)
    return res.is_kernel, res.witness


# -- the Frobenius field element oracle --


def ext_zero(ext) -> ExtElem:
    return ExtElem(ext, [APoly.zero(ext.fq)] * ext.s)


def ext_one(ext) -> ExtElem:
    nums = [APoly.zero(ext.fq)] * ext.s
    nums[0] = APoly.one(ext.fq)
    return ExtElem(ext, nums)


def ext_gen(ext) -> ExtElem:
    """The residue of x (the Frobenius, in applications)."""
    nums = [APoly.zero(ext.fq)] * ext.s
    if ext.s == 1:
        return ExtElem(ext, [-ext.mod[0]])
    nums[1] = APoly.one(ext.fq)
    return ExtElem(ext, nums)


def ext_elem(ext, nums, den: APoly | None = None) -> ExtElem:
    return ExtElem(ext, list(nums), den)


def mult_matrix(ext, nums: list[APoly]) -> list[list[APoly]]:
    """Matrix of multiplication by the (integral) vector, power basis."""
    cols = []
    cur = list(nums)
    for j in range(ext.s):
        cols.append(list(cur))
        if j + 1 < ext.s:
            cur = ext.reduce_vec([APoly.zero(ext.fq)] + cur)
    return [[cols[j][i] for j in range(ext.s)] for i in range(ext.s)]


class RatFunc:
    """A reduced element of F = F_q(T) with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: APoly, den: APoly | None = None):
        if den is None or den.coeffs == (1,):
            # a denominator of 1 is already reduced and monic
            self.num = num
            self.den = APoly.one(num.fq) if den is None else den
            return
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        else:
            den = APoly.one(num.fq)
        if not den.is_monic():
            c = num.fq.inv(den.lc())
            num = num.scale(c)
            den = den.scale(c)
        self.num = num
        self.den = den

    def __truediv__(self, other: RatFunc) -> RatFunc:
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_integral(self) -> bool:
        return self.den.degree == 0

    def to_apoly(self) -> APoly:
        if not self.is_integral():
            raise ValueError(f"{self} is not integral")
        return self.num

    def monic_normalized(self) -> RatFunc:
        """Scale by a unit so the numerator is monic (for index values)."""
        if not self.num:
            return self
        c = self.num.fq.inv(self.num.lc())
        return RatFunc(self.num.scale(c), self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def text(self, var: str = "T") -> str:
        if self.den.degree == 0:
            return self.num.text(var)
        return f"({self.num.text(var)})/({self.den.text(var)})"

    def __repr__(self) -> str:
        return self.text()


def ratfunc_mul(a: RatFunc, b: RatFunc) -> RatFunc:
    return RatFunc(a.num * b.num, a.den * b.den)


class ExtElem:
    """A reduced element of an ExtensionField: nums / den in power
    coordinates, divided by the gcd of den and the nonzero entries, den
    monic, and den 1 for zero. The library keeps elements as A-columns
    over a denominator; this is the independent field arithmetic the
    tests check those kernels against."""

    __slots__ = ("ext", "nums", "den")

    def __init__(self, ext, nums: list[APoly], den: APoly | None = None):
        fq = ext.fq
        if den is None:
            den = APoly.one(fq)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if any(nums):
            g = den
            for v in nums:
                if v:
                    g = poly_gcd(g, v)
            if g.degree > 0:
                nums = [v.exact_div(g) if v else v for v in nums]
                den = den.exact_div(g)
        else:
            den = APoly.one(fq)
        if not den.is_monic():
            u = fq.inv(den.lc())
            nums = [v.scale(u) for v in nums]
            den = den.scale(u)
        self.ext = ext
        self.nums = tuple(nums)
        self.den = den

    def __add__(self, other: ExtElem) -> ExtElem:
        nums = [a * other.den + b * self.den for a, b in zip(self.nums, other.nums)]
        return ExtElem(self.ext, nums, self.den * other.den)

    def __neg__(self) -> ExtElem:
        return ExtElem(self.ext, [-a for a in self.nums], self.den)

    def __sub__(self, other: ExtElem) -> ExtElem:
        return self + (-other)

    def __mul__(self, other: ExtElem) -> ExtElem:
        nums = self.ext.mul_vecs(list(self.nums), list(other.nums))
        return ExtElem(self.ext, nums, self.den * other.den)

    def inv(self) -> ExtElem:
        if not self:
            raise ZeroDivisionError("inversion of zero")
        zero, one = APoly.zero(self.ext.fq), APoly.one(self.ext.fq)
        e0 = [[one]] + [[zero]] * (self.ext.s - 1)
        det, col = mat_solve(mult_matrix(self.ext, list(self.nums)), e0)
        if col is None:
            raise ZeroDivisionError("element is a zero divisor")
        return ExtElem(self.ext, [row[0] * self.den for row in col], det)

    def __truediv__(self, other: ExtElem) -> ExtElem:
        return self * other.inv()

    def __pow__(self, m: int) -> ExtElem:
        if m < 0:
            return self.inv() ** (-m)
        r = ext_one(self.ext)
        b = self
        while m:
            if m & 1:
                r = r * b
            b = b * b
            m >>= 1
        return r

    def norm(self) -> RatFunc:
        """Determinant of the multiplication matrix (multiplicative)."""
        det = mat_det(mult_matrix(self.ext, list(self.nums)))
        return RatFunc(det, self.den ** self.ext.s)

    def trace(self) -> RatFunc:
        acc = APoly.zero(self.ext.fq)
        for i, v in enumerate(self.nums):
            if v:
                acc = acc + v * self.ext.power_sum(i)
        return RatFunc(acc, self.den)

    def __bool__(self) -> bool:
        return any(self.nums)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtElem)
            and self.nums == other.nums
            and self.den == other.den
            and self.ext == other.ext
        )

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        from drinfeld.render import poly_in_x_text

        body = poly_in_x_text(list(self.nums), var="pi")
        if self.den.degree == 0:
            return body
        return f"({body})/({self.den.text()})"


def basis_ext(order) -> list[ExtElem]:
    """The basis of order as reduced elements of the Frobenius field."""
    rows, den = order.basis_matrix
    return [ExtElem(order.ext, list(col), den) for col in zip(*rows)]


def coords_of(order, x) -> list | None:
    """Coordinates of the `ExtElem` x in the basis of order, one reduced
    `RatFunc` each, or None when the basis is singular: the oracle of the
    order's exact-division kernels (`AOrder.table`, `one_coords`,
    `trace_form`)."""
    det, adj = order.basis_adjugate
    if adj is None:
        return None
    dens = order.basis_matrix[1]
    nums = [v * dens for v in x.nums]
    out = []
    for row in adj:
        acc = APoly.zero(order.fq)
        for a, v in zip(row, nums):
            if a and v:
                acc = acc + a * v
        out.append(RatFunc(acc, det * x.den))
    return out


def _integral_coords(order, x, message: str) -> list:
    coords = coords_of(order, x)
    if coords is None or any(not c.is_integral() for c in coords):
        raise InternalError(message)
    return [c.to_apoly() for c in coords]


def ref_table(order) -> list:
    """The multiplication table through `ExtElem` products and `coords_of`."""
    basis = basis_ext(order)
    if order.basis_adjugate[1] is None:
        raise InternalError("basis product escaped the F-span")
    return [
        [_integral_coords(order, a * b, "order is not closed under multiplication") for b in basis]
        for a in basis
    ]


def ref_one_coords(order) -> list:
    return _integral_coords(order, ext_one(order.ext), "order does not contain 1")


def ref_trace_form(order) -> tuple:
    """(det G, adj G) of the trace Gram matrix, from `ExtElem.trace` and
    `ref_table`."""
    traces = []
    for b in basis_ext(order):
        tr = b.trace()
        if not tr.is_integral():
            raise InternalError("trace of an integral element escaped A")
        traces.append(tr.to_apoly())
    table = ref_table(order)
    gram = []
    for row in table:
        gram_row = []
        for entry in row:
            acc = APoly.zero(order.fq)
            for c, tr in zip(entry, traces):
                acc = acc + c * tr
            gram_row.append(acc)
        gram.append(gram_row)
    return mat_solve(gram, mat_identity(order.fq, order.s))
