"""Linear algebra over the base field F_q.

Every system is homogeneous. Vectors hold canonical integer encodings of
F_q scalars (see fields.Fq). `nullspace` and `echelon` (which builds each
null vector on request) read off the reduced row echelon form column by
column: the null vector of free column f is 1 at f and 0 at the other
free columns and at every column after f. It is unique, so the answer
depends on neither the kernel nor the order of the rows, and the first
free column's vector is the first linear dependence among the columns.

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
d*n + m). The kernel (Albrecht, Bard and Hart, "Algorithm 898", ACM TOMS
2010) reduces the columns in order against the pivot columns so far,
keyed by their highest bit, with one XOR per step on the column and on
the mask of the columns it sums. A column that reduces to zero is free,
and its mask is its null vector: only pivot columns are ever added in.
"""

from __future__ import annotations

from .fields import Fq


def echelon(fq: Fq, system, ncols: int):
    """(free columns, null_vector) of the system on ncols columns, after
    one forward elimination: the free columns increase, and null_vector(f)
    is the null vector of free column f."""
    if fq.q == 2:
        return _echelon_f2(system, ncols)
    return _echelon_fq(fq, system, ncols)


def nullspace(fq: Fq, system, ncols: int) -> list[list[int]]:
    """Basis of the kernel of the matrix given as a system on ncols
    columns, in increasing order of the free columns."""
    free, null_vector = echelon(fq, system, ncols)
    return [null_vector(f) for f in free]


def dense_system(fq: Fq, cols) -> list:
    """The system whose column j is the vector cols[j], all of one length."""
    if fq.q == 2:
        return [pack(col) for col in cols]
    return [(0, row) for row in zip(*cols)]


# bytes of 0/1 scalars -> the ASCII digits int(..., 2) reads, and back
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def pack(bits) -> int:
    """The int whose bit i is bits[i], for F_2 scalars 0 and 1."""
    return int(b"0" + bytes(bits)[::-1].translate(_DIGITS), 2)


def _echelon_f2(cols: list[int], ncols: int):
    """The kernel over F_2 on column ints. Returns (free, vector): the free
    columns in increasing order and vector(f) the null vector of free
    column f."""
    # column j is reduced as col << ncols | 1 << j, so one XOR updates it
    # and its mask, and it has reduced to zero once its bit length is
    # ncols or less
    piv = [0] * (max(cols, default=0).bit_length() + ncols + 1)  # the pivot of each bit length
    masks = {}  # free column -> its null vector
    for j, col in enumerate(cols):
        w = col << ncols | 1 << j
        top = w.bit_length()
        while top > ncols and piv[top]:
            w ^= piv[top]
            top = w.bit_length()
        if top > ncols:
            piv[top] = w
        else:
            masks[j] = w

    def vector(f: int) -> list[int]:
        # a leading 1 keeps the zero columns at the top, and is cut off
        return list(format(masks[f] | 1 << ncols, "b")[:0:-1].encode().translate(_BITS))

    return list(masks), vector


def _echelon_fq(fq: Fq, rows, ncols: int):
    """The kernel over any F_q, on the field's tables and sparse rows.
    Returns what `_echelon_f2` returns."""
    add, mul, neg = fq._add, fq._mul, fq._neg
    # the pivot row of column c is 1 at c and sup[c] its other nonzero
    # entries (j, a_j), c < j <= top[c]; sup[c] is None for a free column
    sup: list = [None] * ncols
    top = [0] * ncols
    w = [0] * ncols  # the row being reduced; zero between rows
    for lead, vals in rows:
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
                break
            mc = mul[neg[c]]
            for j, v in p:
                w[j] = add[w[j]][mc[v]]
            if top[col] > last:
                last = top[col]
            col += 1
        w[lead : last + 1] = [0] * (last + 1 - lead)

    def vector(f: int) -> list[int]:
        x = [0] * ncols
        x[f] = 1
        for c in range(f - 1, -1, -1):
            if sup[c] is not None:
                acc = 0
                for j, a in sup[c]:
                    acc = add[acc][mul[a][x[j]]]
                x[c] = neg[acc]
        return x

    return [c for c in range(ncols) if sup[c] is None], vector
