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

`echelon` stops after the forward elimination of a homogeneous system:
it gives the free columns, and the null vector of a free column f on
request, by back-substitution from f down over the pivot rows as they
are (on packed rows, pivot column c takes the parity of its row against
the vector so far), so a caller builds only the null vectors it needs.
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


def echelon(fq: Fq, rows, ncols: int):
    """(free columns, null_vector) of the homogeneous system given by
    sparse rows (lead, vals) on ncols columns, after one forward
    elimination: the free columns increase, and null_vector(f) is the
    vector of free column f in `solve_linear`'s null basis."""
    zeros = [0] * len(rows)
    if fq.q == 2:
        piv = _forward_f2(rows, zeros, ncols)[0]

        def null_vector(f: int) -> list[int]:
            x = 1 << (ncols - f)
            for L in range(ncols + 2 - f, ncols + 2):
                if piv[L] and (piv[L] & x).bit_count() & 1:
                    x |= 1 << (L - 1)
            return list(format(x >> 1, f"0{ncols}b").encode().translate(_BITS))

        return [f for f in range(ncols) if not piv[ncols + 1 - f]], null_vector
    add, mul, neg = fq._add, fq._mul, fq._neg
    sup = _forward_fq(fq, rows, zeros, ncols)[0]

    def null_vector(f: int) -> list[int]:
        x = [0] * ncols
        x[f] = 1
        for c in range(f - 1, -1, -1):
            if sup[c] is not None:
                acc = 0
                for j, a in sup[c]:
                    acc = add[acc][mul[a][x[j]]]
                x[c] = neg[acc]
        return x

    return [c for c in range(ncols) if sup[c] is None], null_vector


# bytes of 0/1 scalars -> the ASCII digits int(..., 2) reads, and back
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _forward_f2(rows, rhs: list[int], ncols: int):
    """Forward elimination over F_2 on packed rows: an int holds column j
    at bit ncols - j and the right-hand side at bit 0, so a row operation
    is one XOR and a row's leading column is read off its bit length.
    Returns (piv, consistent): piv[L] is the pivot row of bit length L
    (leading column ncols + 1 - L), 0 for none. piv[1] stays 0, so a row
    reduced to its right-hand side stops there."""
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
    return piv, consistent


def _solve_f2(rows, rhs: list[int], ncols: int):
    """`solve_linear` over F_2 on packed rows (`_forward_f2`)."""
    piv, consistent = _forward_f2(rows, rhs, ncols)
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


def _forward_fq(fq: Fq, rows, rhs: list[int], ncols: int):
    """Forward elimination over any F_q, on the field's tables. Returns
    (sup, prhs, consistent): the pivot row of column c is 1 at c, sup[c]
    its other nonzero entries (j, a_j), c < j <= top[c], and prhs[c] its
    right-hand side; sup[c] is None for a free column."""
    add, mul, neg = fq._add, fq._mul, fq._neg
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
    return sup, prhs, consistent


def _solve_fq(fq: Fq, rows, rhs: list[int], ncols: int):
    """`solve_linear` over any F_q (`_forward_fq`)."""
    add, mul, neg = fq._add, fq._mul, fq._neg
    sup, prhs, consistent = _forward_fq(fq, rows, rhs, ncols)
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
