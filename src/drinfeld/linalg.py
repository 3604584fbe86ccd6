"""Linear algebra over the base field F_q.

Vectors hold canonical integer encodings of F_q scalars (see fields.Fq).
`solve_linear`, `nullspace` and `echelon` (which builds each null vector
on request) read off the reduced row echelon form column by column: the
particular solution is 0 at every free column, and the null vector of
free column f is 1 at f and 0 at the other free columns. It is unique,
so the answer depends on neither the kernel nor the order of the rows.

For q > 2 a system is given by sparse rows: a row is a pair (lead, vals)
whose entry in column lead + i is vals[i], and which is zero outside
those columns. The systems of k{tau} are banded this way (the Hom system
u phi_T = psi_T u of the centralizer and of isomorphisms, the columns
phi_{T^j} tau^(n i) of m(x)), so a row stays a short list however many
columns there are. The kernel reduces the rows one at a time against
the pivot rows found so far, from its leading column on: a row meets
only pivots inside its own span [lead, last], widened by the span of
each pivot it meets, so the fill stays inside the band and nothing is
ever cleared upward. Back-substitution then solves the pivot columns
from the highest down, over the pivot rows as they are. Row operations
read the field's tables: for a multiplier c the row mul[c] is bound
once, and a - c*b is add[a][mul[-c][b]].

Over F_2 (no option selects it) a system is given by its columns, each
one Python int whose bit i is its entry in row i (`pack`; a skew
polynomial's column holds coordinate m of its tau^d coefficient at bit
d*n + m); the right-hand side is packed the same way. The kernel
(Albrecht, Bard and Hart, "Algorithm 898", ACM TOMS 2010) reduces the
columns in order against the pivot columns so far, keyed by their
highest bit, with one XOR per step on the column and on the mask of the
columns it sums. A column that reduces to zero is free, and its mask is
its null vector: only pivot columns are ever added in. The right-hand
side's mask is the particular solution.
"""

from __future__ import annotations

from .fields import Fq


def solve_linear(fq: Fq, system, rhs, ncols: int):
    """Solve A*x = b over F_q, for a system A on ncols columns and b a list
    with an entry per row: the particular solution and the null basis, in
    increasing order of the free columns, or None and the null basis when
    the system is inconsistent."""
    free, vector, consistent = _kernel(fq, system, rhs, ncols)
    return (vector(ncols) if consistent else None), [vector(f) for f in free]


def echelon(fq: Fq, system, ncols: int):
    """(free columns, null_vector) of the homogeneous system on ncols
    columns, after one forward elimination: the free columns increase,
    and null_vector(f) is the vector of free column f in `solve_linear`'s
    null basis."""
    return _kernel(fq, system, None, ncols)[:2]


def nullspace(fq: Fq, system, ncols: int) -> list[list[int]]:
    """Basis of the kernel of the matrix given as a system on ncols columns."""
    free, null_vector = echelon(fq, system, ncols)
    return [null_vector(f) for f in free]


def dense_system(fq: Fq, cols) -> list:
    """The system whose column j is the vector cols[j], all of one length."""
    if fq.q == 2:
        return [pack(col) for col in cols]
    return [(0, row) for row in zip(*cols)]


def _kernel(fq: Fq, system, rhs, ncols: int):
    if fq.q == 2:
        return _echelon_f2(system, pack(rhs or ()), ncols)
    return _echelon_fq(fq, system, rhs or [0] * len(system), ncols)


# bytes of 0/1 scalars -> the ASCII digits int(..., 2) reads, and back
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def pack(bits) -> int:
    """The int whose bit i is bits[i], for F_2 scalars 0 and 1."""
    return int(b"0" + bytes(bits)[::-1].translate(_DIGITS), 2)


def _echelon_f2(cols: list[int], rhs: int, ncols: int):
    """The kernel over F_2 on column ints. Returns (free, vector,
    consistent): the free columns in increasing order, vector(f) the null
    vector of free column f and vector(ncols) the particular solution, and
    whether the system is consistent."""
    # column j (j = ncols: the right-hand side) is reduced as
    # col << ncols + 1 | 1 << j, so one XOR updates it and its mask, and it
    # has reduced to zero once its bit length is ncols + 1 or less
    low = ncols + 1
    cols = cols + [rhs]
    piv = [0] * (max(cols).bit_length() + low + 1)  # the pivot of each bit length
    masks = {}  # free column -> its null vector; ncols -> the solution
    for j, col in enumerate(cols):
        w = col << low | 1 << j
        top = w.bit_length()
        while top > low and piv[top]:
            w ^= piv[top]
            top = w.bit_length()
        if top > low:
            piv[top] = w
        else:
            masks[j] = w

    def vector(f: int) -> list[int]:
        # a leading 1 keeps the zero columns at the top, and is cut off
        return list(format(masks[f] | 1 << ncols, "b")[:0:-1].encode().translate(_BITS))

    return [j for j in masks if j < ncols], vector, ncols in masks


def _echelon_fq(fq: Fq, rows, rhs: list[int], ncols: int):
    """The kernel over any F_q, on the field's tables and sparse rows.
    Returns what `_echelon_f2` returns."""
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
