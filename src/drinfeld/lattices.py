"""A-lattices: free F_q[T]-submodules of F^s with canonical HNF bases.

The canonical form fixed here and used for every equality test in the
library: basis vectors are the *columns* of an upper-triangular s x s
matrix, the diagonal is monic, and each entry to the right of the
diagonal is reduced modulo the diagonal entry of its row. A lattice may
carry a monic denominator; the pair (matrix, denominator) is reduced so
equal lattices compare equal componentwise. Indices are polynomials,
computed from determinants and denominators by exact division in A.
"""

from __future__ import annotations

from .apoly import APoly, mat_identity, poly_gcd
from .errors import InternalError, NotSublattice, RankError
from .fields import Fq


def _hnf_reduce(fq: Fq, dim: int, gens: list[list[APoly]]) -> list[list[APoly]]:
    """Column-style HNF of the A-span of the given vectors.

    Row by row from the last: the active column (nonzero in the row) of
    least degree there is the pivot, and every other active column is
    reduced against it, until one is left. Columns not yet placed are
    zero below the current row, so only rows up to it are updated."""
    work = [list(g) for g in gens if any(g)]
    placed: list[list[APoly] | None] = [None] * dim
    for row in range(dim - 1, -1, -1):
        active = [c for c in work if c[row]]
        if not active:
            raise RankError(f"generators do not span rank {dim} at row {row}")
        while len(active) > 1:
            piv = min(active, key=lambda c: c[row].degree)
            lead = piv[row]
            upper = [(i, piv[i]) for i in range(row) if piv[i]]
            left = [piv]
            for c in active:
                if c is piv:
                    continue
                q, c[row] = divmod(c[row], lead)
                for i, e in upper:
                    c[i] = c[i] - q * e
                if c[row]:
                    left.append(c)
            active = left
        piv = active[0]
        work = [c for c in work if c is not piv]
        inv = fq.inv(piv[row].lc())
        if inv != 1:
            piv = [c.scale(inv) for c in piv]
        placed[row] = piv
    cols = [list(placed[j]) for j in range(dim)]  # type: ignore[arg-type]
    # reduce entries right of the diagonal modulo the diagonal of their row
    for j in range(dim):
        for i in range(j - 1, -1, -1):
            q, _ = divmod(cols[j][i], cols[i][i])
            if q:
                for m in range(i + 1):
                    cols[j][m] = cols[j][m] - q * cols[i][m]
    return cols


class ALattice:
    """Full-rank lattice (1/den) * span_A(columns) in canonical form."""

    __slots__ = ("fq", "dim", "cols", "den")

    def __init__(self, fq: Fq, dim: int, cols, den: APoly):
        self.fq = fq
        self.dim = dim
        self.cols = tuple(tuple(c) for c in cols)
        self.den = den

    @staticmethod
    def from_generators(fq: Fq, dim: int, gens, den: APoly | None = None) -> ALattice:
        """Canonicalize the A-span of vectors (optionally over a common
        denominator). Raises RankError if the span has rank below dim."""
        if den is None:
            den = APoly.one(fq)
        cols = _hnf_reduce(fq, dim, [list(g) for g in gens])
        # strip common content into the denominator
        content = den
        for c in cols:
            for e in c:
                if e:
                    content = poly_gcd(content, e)
        if content.degree > 0:
            cols = [[e.exact_div(content) for e in c] for c in cols]
            den = den.exact_div(content)
        # span_A(cols) is unchanged by a unit, so only den is made monic
        if not den.is_monic():
            den = den.scale(fq.inv(den.lc()))
        return ALattice(fq, dim, cols, den)

    @staticmethod
    def identity(fq: Fq, dim: int) -> ALattice:
        return ALattice(fq, dim, mat_identity(fq, dim), APoly.one(fq))

    def det(self) -> APoly:
        d = APoly.one(self.fq)
        for j in range(self.dim):
            d = d * self.cols[j][j]
        return d

    def coords(self, vec, den: APoly | None = None) -> list[APoly] | None:
        """Integral coordinates of vec/den in the lattice basis, or None
        when vec/den is not in the lattice.

        Back-substitution on the triangular basis with monic diagonal,
        stopping at the first division that is not exact.
        """
        resid = [v * self.den for v in vec] if self.den.degree > 0 else list(vec)
        if den is not None and den.coeffs != (1,):
            for i, v in enumerate(resid):
                q, r = divmod(v, den)
                if r:
                    return None
                resid[i] = q
        coords = [APoly.zero(self.fq)] * self.dim
        for row in range(self.dim - 1, -1, -1):
            col = self.cols[row]
            c = resid[row]
            if col[row].degree > 0:  # a monic diagonal of degree 0 is 1
                c, r = divmod(c, col[row])
                if r:
                    return None
            coords[row] = c
            if c:
                for i in range(row):
                    if col[i]:
                        resid[i] = resid[i] - c * col[i]
        return coords

    def contains(self, vec, den: APoly | None = None) -> bool:
        return self.coords(vec, den) is not None

    def contains_lattice(self, other: ALattice) -> bool:
        return all(
            self.contains([e for e in col], other.den) for col in other.cols
        )

    def scale(self, a: APoly) -> ALattice:
        if not a:
            raise ZeroDivisionError("scaling a lattice by zero")
        gens = [[e * a for e in col] for col in self.cols]
        return ALattice.from_generators(self.fq, self.dim, gens, self.den)

    def transform(self, mat_rows: list[list[APoly]], den: APoly | None = None) -> ALattice:
        """Image under the linear map given by rows (must stay full rank)."""
        if den is None:
            den = APoly.one(self.fq)
        gens = []
        for col in self.cols:
            vec = []
            for i in range(self.dim):
                acc = APoly.zero(self.fq)
                for j in range(self.dim):
                    if mat_rows[i][j] and col[j]:
                        acc = acc + mat_rows[i][j] * col[j]
                vec.append(acc)
            gens.append(vec)
        return ALattice.from_generators(self.fq, self.dim, gens, self.den * den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ALattice)
            and self.dim == other.dim
            and self.den == other.den
            and self.cols == other.cols
        )

    def __hash__(self) -> int:
        return hash((self.den, self.cols))

    def __repr__(self) -> str:
        rows = "; ".join(
            ",".join(self.cols[j][i].text() for j in range(self.dim))
            for i in range(self.dim)
        )
        d = "" if self.den.degree == 0 else f" / ({self.den.text()})"
        return f"ALattice[{rows}]{d}"


def lattice_index(big: ALattice, small: ALattice) -> APoly:
    """The monic index generator chi(big/small); requires small <= big.

    det(small) den(big)^s / (det(big) den(small)^s), a polynomial because
    small <= big, and monic because HNF diagonals and denominators are.
    Multiplicative along chains and equal to one exactly when the
    lattices coincide.
    """
    if not big.contains_lattice(small):
        raise NotSublattice("index of a non-sublattice requested")
    idx, r = divmod(small.det() * big.den**big.dim, big.det() * small.den**small.dim)
    if r:
        raise InternalError("index of a sublattice is not a polynomial")
    return idx
