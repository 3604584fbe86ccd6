"""Linear algebra over the base field F_q.

Vectors hold canonical integer encodings of F_q scalars (see fields.Fq).
A system is given by sparse rows: a row is a pair (lead, vals) whose
entry in column lead + i is vals[i], and which is zero outside those
columns. The systems of k{tau} are banded this way (the commutator
system of the centralizer, the columns phi_{T^j} tau^(n i) of m(x)),
so a row stays a short list however many columns there are.

`solve_linear` solves such a system. Forward elimination takes
the rows one at a time and reduces each against the pivot rows found so
far, from its leading column on: a row meets only pivots inside its own
span [lead, last], widened by the span of each pivot it meets, so the
fill stays inside the band and nothing is ever cleared upward. A row that
does not reduce to zero becomes the pivot row of its leading column.
Back-substitution from the last pivot down then reads the reduced row
echelon form off the pivot rows: the particular solution, and each
pivot's reduced row restricted to the free columns past it. The reduced
row echelon form is unique, so the answer does not depend on the order
of the rows. Row operations read the field's tables directly: for a
multiplier c the row mul[c] is bound once, and a - c*b is
add[a][mul[-c][b]], over the pivot row's nonzero entries only.

Over F_2 (q = 2; no option selects it) the same two steps run on packed
rows (Albrecht, Bard and Hart, "Algorithm 898", ACM TOMS 2010): a row is
one Python int with column j at bit ncols - j and the right-hand side at
bit 0. A row operation is one XOR over the whole row, and the leading
column is read off int.bit_length(), so pivots are found by bit length.
The packed format never leaves this module: callers pass (lead, vals)
for every q, and both kernels return the same reduced row echelon answer.
"""

from __future__ import annotations

from .fields import Fq


def solve_linear(fq: Fq, rows, rhs: list[int], ncols: int):
    """Solve A*x = b over F_q, for A given by sparse rows (lead, vals) on
    ncols columns.

    Returns (particular solution, nullspace basis), or (None, nullspace
    basis) when the system is inconsistent. The particular solution has
    every free variable zero; the basis holds one vector per free column
    f, in increasing order of f, which is 1 at f and 0 at the other free
    columns: the reduced row echelon form read off column by column.
    """
    if fq.q == 2:
        return _solve_f2(rows, rhs, ncols)
    return _solve_fq(fq, rows, rhs, ncols)


# bytes of 0/1 scalars -> the ASCII digits int(..., 2) reads
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _solve_f2(rows, rhs: list[int], ncols: int):
    """`solve_linear` over F_2 on packed rows: an int holds column j at bit
    ncols - j and the right-hand side at bit 0, so a row operation is one
    XOR and a row's leading column is read off its bit length."""
    # piv[L]: the pivot row of bit length L (leading column ncols + 1 - L),
    # 0 for none (so far); piv[1] stays 0, so a row reduced to its
    # right-hand side stops there
    piv = [0] * (ncols + 2)
    consistent = True
    for (lead, vals), b in zip(rows, rhs):
        w = b
        if vals:
            w |= int(bytes(vals).translate(_DIGITS), 2) << (ncols + 1 - lead - len(vals))
        while w:
            top = w.bit_length()
            p = piv[top]
            if not p:
                break
            w ^= p
        if w == 1:
            consistent = False
        elif w:
            piv[top] = w
    tops = [L for L in range(2, ncols + 2) if piv[L]]
    pmask = sum(1 << (L - 1) for L in tops)
    # back-substitution from the last pivot column down: a row takes the
    # XOR of the pivot rows, already reduced, at its other pivot bits
    for L in tops:
        row = piv[L]
        t = row & pmask ^ (1 << (L - 1))
        while t:
            low = t & -t
            row ^= piv[low.bit_length()]
            t ^= low
        piv[L] = row
    x = [0] * ncols
    null = {f: [0] * ncols for f in range(ncols) if not piv[ncols + 1 - f]}
    fmask = ((1 << (ncols + 1)) - 2) & ~pmask
    for L in tops:
        row = piv[L]
        c = ncols + 1 - L
        x[c] = row & 1
        t = row & fmask
        while t:
            low = t & -t
            null[ncols + 1 - low.bit_length()][c] = 1
            t ^= low
    for f, vec in null.items():
        vec[f] = 1
    return (x if consistent else None), list(null.values())


def _solve_fq(fq: Fq, rows, rhs: list[int], ncols: int):
    """`solve_linear` over any F_q, on the field's tables."""
    add, mul, neg = fq._add, fq._mul, fq._neg
    # the pivot row of column c is 1 at c, sup[c] = its other nonzero
    # entries (j, a_j), all with j <= top[c], and prhs[c] its right-hand
    # side; None marks a column without a pivot (so far)
    sup: list = [None] * ncols
    top = [0] * ncols
    prhs = [0] * ncols
    w = [0] * ncols  # the row being reduced; zero between rows
    consistent = True
    for (lead, vals), b in zip(rows, rhs):
        last = lead + len(vals) - 1
        w[lead : last + 1] = vals
        col = lead
        while col <= last:
            c = w[col]
            if not c:
                col += 1
                continue
            p = sup[col]
            if p is None:
                mi = mul[fq.inv(c)]
                sup[col] = [(j, mi[w[j]]) for j in range(col + 1, last + 1) if w[j]]
                top[col] = last
                prhs[col] = mi[b]
                break
            mc = mul[neg[c]]
            for j, v in p:
                w[j] = add[w[j]][mc[v]]
            b = add[b][mc[prhs[col]]]
            if top[col] > last:
                last = top[col]
            col += 1
        else:
            # the row reduced to zero
            if b:
                consistent = False
        w[lead : last + 1] = [0] * (last + 1 - lead)

    free = [c for c in range(ncols) if sup[c] is None]
    nf = len(free)
    # first[c]: the index in free of the first free column >= c
    first = [nf] * (ncols + 1)
    i = nf
    for c in range(ncols - 1, -1, -1):
        if sup[c] is None:
            i -= 1
        first[c] = i
    # back-substitution from the last pivot down: red[c] is the reduced
    # row of pivot c at the free columns free[first[c]:] (the only ones
    # it can be nonzero at), x[c] the particular solution
    red: list = [None] * ncols
    x = [0] * ncols
    for col in range(ncols - 1, -1, -1):
        p = sup[col]
        if p is None:
            continue
        base = first[col]
        row = [0] * (nf - base)
        acc = prhs[col]
        for j, v in p:
            o = first[j] - base
            other = red[j]
            if other is None:
                row[o] = add[row[o]][neg[v]]
                continue
            mc = mul[neg[v]]
            acc = add[acc][mc[x[j]]]
            if o:
                row[o:] = [add[a][mc[u]] for a, u in zip(row[o:], other)]
            else:
                row = [add[a][mc[u]] for a, u in zip(row, other)]
        red[col] = row
        x[col] = acc
    null = []
    for i, f in enumerate(free):
        vec = [0] * ncols
        vec[f] = 1
        for col in range(f):
            row = red[col]
            if row is not None:
                vec[col] = row[i - first[col]]
        null.append(vec)
    return (x if consistent else None), null


def nullspace(fq: Fq, rows, ncols: int) -> list[list[int]]:
    """Basis of the kernel of the matrix given by sparse rows (lead, vals)
    on ncols columns."""
    return solve_linear(fq, rows, [0] * len(rows), ncols)[1]


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
