"""Linear algebra over the base field F_q.

Vectors hold canonical integer encodings of F_q scalars (see fields.Fq).
A system is given by sparse rows: a row is a pair (lead, vals) whose
entry in column lead + i is vals[i], and which is zero outside those
columns. The systems of k{tau} are banded this way (the Hom system
u phi_T = psi_T u of the centralizer and of isomorphisms, the columns
phi_{T^j} tau^(n i) of m(x)), so a row stays a short list however many
columns there are.

Each kernel runs one forward elimination and one back-substitution.
Forward elimination takes the rows one at a time and reduces each
against the pivot rows found so far, from its leading column on: a row
meets only pivots inside its own span [lead, last], widened by the span
of each pivot it meets, so the fill stays inside the band and nothing is
ever cleared upward. A row that does not reduce to zero becomes the
pivot row of its leading column. Back-substitution then solves the
pivot columns one at a time, from the highest down, over the pivot rows
as they are: the null vector of a free column f is 1 at f, 0 at the
other free columns, and at a pivot column c < f whatever makes row c
vanish; the particular solution is 0 at every free column and
x[c] = prhs[c] - sum a_j x[j] at pivot column c. These are the reduced
row echelon form read off column by column, which is unique, so the
answer does not depend on the order of the rows. `solve_linear`,
`nullspace` and `echelon` all read this one path; `echelon` leaves each
null vector to its caller, who builds only the ones it needs. Row
operations read the field's tables directly: for a multiplier c the row
mul[c] is bound once, and a - c*b is add[a][mul[-c][b]].

Over F_2 (q = 2; no option selects it) the same two steps run on packed
rows (Albrecht, Bard and Hart, "Algorithm 898", ACM TOMS 2010): a row is
one Python int with column j at bit ncols - j and the right-hand side at
bit 0. A row operation is one XOR over the whole row, and the leading
column is read off int.bit_length(). In back-substitution pivot column c
takes the parity of its row against the bits solved so far; the
particular solution is the null vector of the right-hand side's column,
so it starts from bit 0 set, and pivot column c takes that parity XOR its
right-hand-side bit. The packed format never leaves this module: callers
pass (lead, vals) for every q, and both kernels return the same answer.
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
    free, vector, consistent = _kernel(fq, rows, rhs, ncols)
    return (vector(ncols) if consistent else None), [vector(f) for f in free]


def echelon(fq: Fq, rows, ncols: int):
    """(free columns, null_vector) of the homogeneous system given by
    sparse rows (lead, vals) on ncols columns, after one forward
    elimination: the free columns increase, and null_vector(f) is the
    vector of free column f in `solve_linear`'s null basis."""
    return _kernel(fq, rows, [0] * len(rows), ncols)[:2]


def nullspace(fq: Fq, rows, ncols: int) -> list[list[int]]:
    """Basis of the kernel of the matrix given by sparse rows (lead, vals)
    on ncols columns."""
    free, null_vector = echelon(fq, rows, ncols)
    return [null_vector(f) for f in free]


def _kernel(fq: Fq, rows, rhs: list[int], ncols: int):
    if fq.q == 2:
        return _echelon_f2(rows, rhs, ncols)
    return _echelon_fq(fq, rows, rhs, ncols)


# bytes of 0/1 scalars -> the ASCII digits int(..., 2) reads, and back
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _echelon_f2(rows, rhs: list[int], ncols: int):
    """The kernel over F_2 on packed rows: an int holds column j at bit
    ncols - j and the right-hand side at bit 0, so a row operation is one
    XOR and a row's leading column is read off its bit length.

    Returns (free, vector, consistent): the free columns in increasing
    order, vector(f) the null vector of free column f and vector(ncols)
    the particular solution, and whether the system is consistent."""
    # piv[L]: the pivot row of bit length L (leading column ncols + 1 - L),
    # 0 for none. piv[1] stays 0, so a row reduced to its right-hand side
    # stops there.
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

    def vector(f: int) -> list[int]:
        x = 1 << (ncols - f)
        for L in range(ncols + 2 - f, ncols + 2):
            if piv[L] and (piv[L] & x).bit_count() & 1:
                x |= 1 << (L - 1)
        # a leading 1 keeps the leading zero columns, and is cut off
        return list(format(x >> 1 | 1 << ncols, "b").encode()[1:].translate(_BITS))

    return [f for f in range(ncols) if not piv[ncols + 1 - f]], vector, consistent


def _echelon_fq(fq: Fq, rows, rhs: list[int], ncols: int):
    """The kernel over any F_q, on the field's tables. Returns what
    `_echelon_f2` returns."""
    add, mul, neg = fq._add, fq._mul, fq._neg
    # the pivot row of column c is 1 at c, sup[c] its other nonzero
    # entries (j, a_j), c < j <= top[c], and prhs[c] its right-hand side;
    # sup[c] is None for a free column
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
    zeros = [0] * ncols

    def vector(f: int) -> list[int]:
        x = [0] * ncols
        if f < ncols:
            x[f] = 1
            b = zeros
        else:
            b = prhs
        for c in range(f - 1, -1, -1):
            if sup[c] is not None:
                acc = 0
                for j, a in sup[c]:
                    acc = add[acc][mul[a][x[j]]]
                x[c] = add[b[c]][neg[acc]]
        return x

    return [c for c in range(ncols) if sup[c] is None], vector, consistent
