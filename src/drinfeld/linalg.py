"""Dense linear algebra over the base field F_q.

Vectors and matrices hold canonical integer encodings of F_q scalars
(see fields.Fq). Systems at desk scale are small, so plain Gaussian
elimination is used throughout. Row operations read the field's tables
directly: for a multiplier c the row mul[c] is bound once, and
a - c*b is add[a][mul[-c][b]], over the pivot row's nonzero entries only.
"""

from __future__ import annotations

from .fields import Fq


def solve_linear(fq: Fq, rows: list[list[int]], rhs: list[int]):
    """Solve A*x = b over F_q.

    Returns (particular solution, nullspace basis) with the free variables
    of the particular solution set to zero, or (None, nullspace basis) when
    the system is inconsistent.
    """
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


def nullspace(fq: Fq, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the kernel of the matrix given by rows."""
    if not rows:
        out = []
        for i in range(ncols):
            v = [0] * ncols
            v[i] = 1
            out.append(v)
        return out
    _, null = solve_linear(fq, rows, [0] * len(rows))
    return null


class TrailingEchelon:
    """An echelon F_q-subspace whose pivots sit at the *highest* nonzero
    coordinate of each vector; each row is 1 at its pivot.

    With coordinates ordered by increasing tau-degree this makes the pivot
    position of a vector reflect its degree, which is what the degree
    ledger of the endomorphism-ring extraction needs.
    """

    def __init__(self, fq: Fq, length: int):
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
