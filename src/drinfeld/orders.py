"""A-orders in the Frobenius field and their fractional ideals.

Two coordinate systems coexist, with a tested change of basis:

* skew realizations in k{tau}, where endomorphism rings are extracted
  as centralizers, or read off A[pi] by right divisibility
  (`end_pi_lattice`), and where the ideal action operates;
* power-basis coordinates in F[x]/(m(x)), where ideal arithmetic,
  indices, trace duals and all equality tests live.

An order carries its A-basis as one matrix over one denominator in
power coordinates (for endomorphism rings also as skew polynomials,
with the first basis element equal to 1), its multiplication table over
A, and the canonical HNF lattice of the basis. Fractional ideals store
HNF lattices in the coordinates of their ambient order's basis, so the
ambient order itself is always the identity lattice. An element of the
Frobenius field is an A-column over one denominator throughout: in
order coordinates as (coords, den), the form `FracIdeal.mul_elem` takes
and `lin_equiv` returns as its witness. Scalars stay in A the same way:
norms, scalings and the norm target of `lin_equiv` are polynomials, read
off HNF determinants and monic denominators by exact division.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .apoly import APoly, mat_det, mat_identity, mat_solve, monic_polys, squarefree_decomposition
from .errors import (
    EmptyIdeal,
    InseparableExtension,
    InternalError,
    NonCommutativeEndomorphisms,
    TooLarge,
)
from .extfield import ExtensionField
from .lattices import ALattice
from .linalg import dense_system, echelon, nullspace
from .modules import DrinfeldModule, is_isogeny
from .skew import SkewPoly, coefficient_system, hom_system


def centralizer_basis(module: DrinfeldModule, s: int):
    """The A-basis b_0 = 1, ..., b_(s-1) of the centralizer of phi_T in
    k{tau}, as the lists [phi_{T^a} b_j for a = 0, 1, ...] of its
    A-multiples of degree at most the cap n*s, and the reader coords(u)
    of the A-coordinates in it of any u in V, a list of s APoly.

    One elimination of the system of u -> u phi_T - phi_T u
    (`hom_system(phi_T, phi_T, cap)`, `echelon`) gives the free columns
    of V, the centralizer below the cap; an element of V is fixed by its
    values there. W, the span of the A-multiples of the basis so far, is
    echelonized on those values by their tops (highest nonzero free
    coordinate), each row carrying its combination of A-multiples.
    The null vector of free column f joins the basis, unchanged, exactly
    when f, taken in increasing order, is not a top of W (README, "End in
    one elimination"), so only the joining ones are built. The ledger
    dim W = dim V certifies the basis: a mismatch is a hard error, never
    a silent truncation. Reducing u in W then gives its coordinates; a
    nonzero residue is a hard error too.
    """
    tower = module.tower
    fq = tower.fq
    add, mul, neg = fq._add, fq._mul, fq._neg
    n, r = module.n, module.rank
    cap = n * s
    free, null_vector = echelon(fq, hom_system(module.phi_t, module.phi_t, cap), (cap + 1) * n)
    nf = len(free)
    at = [divmod(f, n) for f in free]  # (degree, coordinate) of each free column
    rows: dict[int, list] = {}  # top -> sparse row (index, value), 1 at top
    slots: list[tuple[int, int]] = []  # (j, a) of phi_{T^a} b_j, past nf
    terms: list[list[SkewPoly]] = []

    def reduce(u: SkewPoly, slot: int) -> tuple[list[int], int]:
        """u's free values, 1 at slot past them, reduced modulo W to a top W lacks (or -1)."""
        cs = u.coeffs
        vec = [cs[d].coeffs[m] if d < len(cs) else 0 for d, m in at]
        vec += [0] * slot + [1] + [0] * (nf - slot)
        for i in range(nf - 1, -1, -1):
            c = vec[i]
            if c:
                row = rows.get(i)
                if row is None:
                    return vec, i
                mc = mul[neg[c]]
                for k, v in row:
                    vec[k] = add[vec[k]][mc[v]]
        return vec, -1

    def adjoin(b: SkewPoly) -> None:
        mults = [b]
        for a in range((cap - b.degree) // r + 1):
            if a:
                mults.append(module.phi_t * mults[-1] if terms else module.phi_t_power(a))
            vec, top = reduce(mults[a], len(slots))
            if top >= 0:
                mi = mul[fq.inv(vec[top])]
                rows[top] = [(k, mi[v]) for k, v in enumerate(vec) if v]
                slots.append((len(terms), a))
        terms.append(mults)

    adjoin(SkewPoly.one(tower))
    for i, f in enumerate(free):
        if i in rows:
            continue
        vec = null_vector(f)
        if vec[f] != 1 or any(vec[f + 1 :]) or any(vec[g] for g in free[:i]):
            raise InternalError("centralizer solution space degenerated")
        if len(terms) == s:
            raise InternalError("more basis elements than the predicted rank")
        adjoin(SkewPoly(tower, [tower.elem(vec[d * n : d * n + n]) for d in range(cap + 1)]))
    if len(terms) != s:
        raise InternalError(f"extracted {len(terms)} basis elements, expected {s}; cap too small")
    if len(rows) != nf:
        raise InternalError("degree ledger mismatch in centralizer extraction")

    def coords(u: SkewPoly) -> list[APoly]:
        """The A-coordinates of u in V: u - sum c * slots reduces to 0,
        leaving -c past nf (slot nf: spare)."""
        vec, top = reduce(u, nf)
        if top >= 0:
            raise InternalError("element is not in the extracted basis span")
        polys = [[0] * len(t) for t in terms]
        for (j, a), v in zip(slots, vec[nf:]):
            polys[j][a] = neg[v]
        return [APoly(fq, c) for c in polys]

    return terms, coords


def coords_in_skew_basis(order: AOrder, u: SkewPoly) -> list[APoly] | None:
    """A-coordinates of u in the skew basis of End (`AOrder.skew_basis`),
    or None if u is not an endomorphism. End is the centralizer of phi_T,
    so membership is u phi_T = phi_T u (`is_isogeny`), and the
    coordinates are the order's own reading off its build's echelon
    (`centralizer_basis`), certified up to the cap n * s."""
    if order.skew_coords is None:
        raise InternalError("order was not built as a centralizer")
    if u.degree > order.module.n * order.s:
        raise InternalError("membership test beyond the verified degree cap")
    if u and not is_isogeny(u, order.module, order.module):
        return None
    return order.skew_coords(u)


class AOrder:
    """An A-order in the Frobenius field, with basis and multiplication
    table over A. Basis element j is cols[j] / den in power coordinates;
    `basis_matrix` holds the same matrix as rows over den."""

    def __init__(
        self,
        ext: ExtensionField,
        cols,
        den: APoly,
        module: DrinfeldModule | None = None,
        skew_terms: list[list[SkewPoly]] | None = None,
        tag: str = "order",
        pi_lattice: ALattice | None = None,
        skew_coords=None,
    ):
        self.ext = ext
        self.fq = ext.fq
        self.s = ext.s
        rows = [list(row) for row in zip(*cols)]
        self.basis_matrix = (rows, den)
        self.module = module
        self.skew_basis = [t[0] for t in skew_terms] if skew_terms else None
        self.tag = tag
        # a caller whose basis is a canonical lattice passes it; any other
        # basis is spanned to its canonical form here
        if pi_lattice is None:
            pi_lattice = ALattice.from_generators(self.fq, self.s, zip(*rows), den)
        self.pi_lattice = pi_lattice
        # phi_{T^a} * skew_basis[j] for a = 0, 1, ... (`skew_term`), and the
        # centralizer's coordinate reader (`coords_in_skew_basis`)
        self._skew_terms = [list(t) for t in skew_terms] if skew_terms else None
        self.skew_coords = skew_coords

    # -- coordinates --

    def mul_coords(self, a: list[APoly], b: list[APoly]) -> list[APoly]:
        """Product of two integral coordinate vectors, via the table."""
        out = [APoly.zero(self.fq) for _ in range(self.s)]
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    prod = ai * bj
                    vec = self.table[i][j]
                    for m in range(self.s):
                        if vec[m]:
                            out[m] = out[m] + prod * vec[m]
        return out

    @cached_property
    def table(self) -> list[list[list[APoly]]]:
        """The multiplication table over A, built on first use; raises
        InternalError when the basis does not span a ring.

        Basis element j is c_j / den, so e_i e_j = c_i c_j / den^2, whose
        coordinates are adj (c_i c_j) / (det den) (`basis_adjugate`): one
        exact division per coordinate, its remainder the closure check."""
        det, adj = self.basis_adjugate
        if adj is None:
            raise InternalError("basis product escaped the F-span")
        rows, den = self.basis_matrix
        cols = [list(col) for col in zip(*rows)]
        div = det * den
        zero = APoly.zero(self.fq)
        table: list[list] = [[None] * self.s for _ in range(self.s)]
        for i in range(self.s):
            for j in range(i, self.s):
                prod = self.ext.mul_vecs(cols[i], cols[j])
                entry = []
                for row in adj:
                    acc = zero
                    for a, v in zip(row, prod):
                        if a and v:
                            acc = acc + a * v
                    if div.coeffs != (1,):  # 1 for A[pi] and most census orders
                        acc, rem = divmod(acc, div)
                        if rem:
                            raise InternalError("order is not closed under multiplication")
                    entry.append(acc)
                table[i][j] = table[j][i] = entry
        return table

    @cached_property
    def one_coords(self) -> list[APoly]:
        """The coordinates of 1, the power vector (1, 0, ..., 0): column 0
        of adj times den, exactly divided by det."""
        det, adj = self.basis_adjugate
        if adj is None:
            raise InternalError("order does not contain 1")
        den = self.basis_matrix[1]
        out = []
        for row in adj:
            c, rem = divmod(row[0] * den, det)
            if rem:
                raise InternalError("order does not contain 1")
            out.append(c)
        return out

    def skew_term(self, j: int, a: int) -> SkewPoly:
        """phi_{T^a} * skew_basis[j], kept per order: the skew realization
        of T^a times the j-th basis element."""
        if self._skew_terms is None or self.module is None:
            raise InternalError("order carries no skew realization")
        terms = self._skew_terms[j]
        while len(terms) <= a:
            terms.append(self.module.phi_t * terms[-1])
        return terms[a]

    def unit_ideal(self) -> FracIdeal:
        return FracIdeal(self, ALattice.identity(self.fq, self.s))

    @cached_property
    def basis_adjugate(self) -> tuple[APoly, list[list[APoly]] | None]:
        """(det, adj) of the basis matrix's rows, adj None when singular:
        x = v / d in power coordinates has basis coordinates
        adj * (den * v) / (det * d), den the basis denominator."""
        return mat_solve(self.basis_matrix[0], mat_identity(self.fq, self.s))

    @cached_property
    def trace_form(self) -> tuple[APoly, list[list[APoly]]]:
        """(det G, adj G) of the trace Gram matrix G[i][j] = Tr(e_i e_j) of
        the basis; InseparableExtension when the trace form degenerates."""
        if not self.ext.is_separable():
            raise InseparableExtension("trace form degenerates; dual undefined")
        # Tr(c_j / den) = sum_i c_j[i] Tr(pi^i) / den, exactly divided
        rows, den = self.basis_matrix
        power_sum = self.ext.power_sum
        traces = []
        for col in zip(*rows):
            acc = APoly.zero(self.fq)
            for i, v in enumerate(col):
                if v:
                    acc = acc + v * power_sum(i)
            tr, rem = divmod(acc, den)
            if rem:
                raise InternalError("trace of an integral element escaped A")
            traces.append(tr)
        gram = []
        for i in range(self.s):
            row = []
            for j in range(self.s):
                acc = APoly.zero(self.fq)
                for c, tr in zip(self.table[i][j], traces):
                    if c:
                        acc = acc + c * tr
                row.append(acc)
            gram.append(row)
        det, adj = mat_solve(gram, mat_identity(self.fq, self.s))
        if not det:
            raise InseparableExtension("trace form is singular")
        return det, adj

    def ideal_lattice_to_pi(self, lat: ALattice) -> ALattice:
        rows, dens = self.basis_matrix
        return lat.transform(rows, dens)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AOrder)
            and self.ext == other.ext
            and self.pi_lattice == other.pi_lattice
        )

    def __hash__(self) -> int:
        return hash((self.ext, self.pi_lattice))

    def __repr__(self) -> str:
        return f"AOrder({self.tag}, s={self.s})"


def endomorphism_ring(module: DrinfeldModule) -> AOrder:
    """End_k(phi) as an A-order with explicit skew realizations, built
    once per module (`DrinfeldModule.end_ring`).

    Requires the endomorphism ring to be commutative, which holds
    exactly when [Ftilde:F] equals the rank.
    """
    return module.end_ring


def build_endomorphism_ring(module: DrinfeldModule) -> AOrder:
    """The uncached body of `endomorphism_ring`."""
    prof = module.profile()
    if prof.s != module.rank:
        raise NonCommutativeEndomorphisms(f"[Ftilde:F] = {prof.s} < rank {module.rank}")
    s = prof.s
    terms, coords = centralizer_basis(module, s)
    basis_skew = [t[0] for t in terms]
    for b, t in zip(basis_skew, terms):
        # t[1] = phi_T * b, when the cap kept it
        if b * module.phi_t != (t[1] if len(t) > 1 else module.phi_t * b):
            raise InternalError("extracted element does not commute with phi_T")
    for i in range(s):
        for j in range(i + 1, s):
            if basis_skew[i] * basis_skew[j] != basis_skew[j] * basis_skew[i]:
                raise InternalError("endomorphism basis is not commutative")
    p_rows = [coords(SkewPoly.tau_power(module.tower, module.n * i)) for i in range(s)]
    p_t = [[p_rows[j][i] for j in range(s)] for i in range(s)]
    det, adj_t = mat_solve(p_t, mat_identity(module.tower.fq, s))
    if not det:
        raise InternalError("pi powers are not an F-basis")
    return AOrder(
        prof.extension_field(), zip(*adj_t), det, module=module, skew_terms=terms, tag="End", skew_coords=coords
    )


def right_divisible_span(
    module: DrinfeldModule, starts: list[SkewPoly], u: SkewPoly, basis, den: APoly | None = None
) -> ALattice | None:
    """J = I + {sum_j c_j e_j : u right-divides sum_j phi_{c_j} * starts[j]}
    over den, where starts[j] realizes the order's basis element e_j in
    k{tau}, I is the ideal whose HNF columns are basis (diagonal d_j), and
    u right-divides every element of I; None when J = I.

    Right-divisibility by u is F_q-linear, and the T^a e_j with a < deg d_j
    are an F_q-basis of E/I, so J / I is the kernel of a system with one
    column per c_j coefficient: rem(phi_{T^a} * starts[j], u). Left
    multiples of u stay in k{tau} u, so rem(phi_{T^(a+1)} b) = rem(phi_T
    rem(phi_{T^a} b)) and each division is of degree below deg u + r. The
    kernel's lifts (deg c_j < deg d_j) are spanned with I's columns."""
    fq, s = module.tower.fq, len(basis)
    degs = [basis[j][j].degree for j in range(s)]
    cols = []
    for b, deg in zip(starts, degs):
        for a in range(deg):
            rem = (module.phi_t * rem if a else b).rdivmod(u)[1]
            cols.append(rem)
    kernel = nullspace(fq, coefficient_system(cols, u.degree), len(cols)) if cols else []
    if not kernel:
        return None
    offsets = list(itertools.accumulate(degs, initial=0))
    lifts = [[APoly(fq, vec[offsets[j] : offsets[j + 1]]) for j in range(s)] for vec in kernel]
    return ALattice.from_generators(fq, s, [list(c) for c in basis] + lifts, den)


def end_index_bound(ext: ExtensionField) -> APoly | None:
    """An f in A with f * End(phi) <= A[pi] for every module phi whose
    Frobenius field is ext, or None when m(x) is inseparable.

    A[pi] <= End(phi) <= O, the maximal order, and disc(A[pi]) =
    det(Tr pi^(i+j)) = [O : A[pi]]^2 disc(O). So for disc = prod g_i^i
    (`squarefree_decomposition`) the index divides f = prod g_i^(i//2),
    and f kills End(phi) / A[pi]. No prime of A is factored out."""
    if not ext.is_separable():
        return None
    s = ext.s
    disc = mat_det([[ext.power_sum(i + j) for j in range(s)] for i in range(s)])
    f = APoly.one(ext.fq)
    for g, i in squarefree_decomposition(disc):
        if i > 1:
            f = f * g ** (i // 2)
    return f


def end_pi_lattice(module: DrinfeldModule, f: APoly) -> ALattice:
    """The pi-lattice of End(phi) by right divisibility over A[pi], for a
    commutative End(phi) and f as `end_index_bound` gives it.

    End(phi) = f^-1 {w in A[pi] : phi_f right-divides w}: w = e phi_f for
    e in End(phi), and conversely w = e phi_f commuting with phi_T makes e
    commute with it (k{tau} has no zero divisors). So f End(phi) is the
    annihilator of the A[pi]-ideal f A[pi] with u = phi_f
    (`right_divisible_span` over the starts pi^j, with denominator f), and
    End(phi) = A[pi] exactly when f A[pi] is a kernel ideal (Garai and
    Papikian's divisibility test for rank 2, "Computing endomorphism rings
    and Frobenius matrices of Drinfeld modules", J. Number Theory 2022)."""
    s = module.profile().s
    if s != module.rank:
        raise NonCommutativeEndomorphisms(f"[Ftilde:F] = {s} < rank {module.rank}")
    fq = module.tower.fq
    pis = [SkewPoly.tau_power(module.tower, module.n * j) for j in range(s)]
    zero = APoly.zero(fq)
    f_a_pi = [[f if i == j else zero for i in range(s)] for j in range(s)]
    lat = right_divisible_span(module, pis, module(f), f_a_pi, f)
    return ALattice.identity(fq, s) if lat is None else lat


def minimal_frobenius_order(profile, module: DrinfeldModule) -> AOrder:
    """A[pi] = A[x]/(m(x)) in its power basis; skew basis tau^(n*i)."""
    ext = profile.extension_field()
    skew = [[SkewPoly.tau_power(module.tower, module.n * i)] for i in range(ext.s)]
    one = APoly.one(ext.fq)
    return AOrder(ext, mat_identity(ext.fq, ext.s), one, module=module, skew_terms=skew, tag="A[pi]")


def order_from_pi_lattice(
    ext: ExtensionField, lat: ALattice, module: DrinfeldModule | None = None, tag: str = "order"
) -> AOrder:
    """The order whose pi-lattice is lat, a canonical lattice that is
    kept as it is; its basis is the lattice's HNF columns."""
    return AOrder(ext, lat.cols, lat.den, module=module, tag=tag, pi_lattice=lat)


class FracIdeal:
    """A fractional ideal of an order, as an HNF lattice in the order's
    basis coordinates (the order itself is the identity lattice)."""

    __slots__ = ("order", "lattice", "_norm")

    def __init__(self, order: AOrder, lattice: ALattice):
        self.order = order
        self.lattice = lattice
        self._norm = None

    @staticmethod
    def from_generators(order: AOrder, vectors, den: APoly | None = None) -> FracIdeal:
        """Ideal generated (as an order module) by coordinate vectors."""
        vecs = [list(v) for v in vectors]
        if not any(any(c for c in v) for v in vecs):
            raise EmptyIdeal("no nonzero generators")
        return _product_ideal(order, vecs, mat_identity(order.fq, order.s), den)

    def is_integral(self) -> bool:
        return self.lattice.den.degree == 0

    def scaled_integral(self) -> FracIdeal:
        if self.is_integral():
            return self
        return self.scale(self.lattice.den)

    def scale(self, a: APoly) -> FracIdeal:
        return FracIdeal(self.order, self.lattice.scale(a))

    def norm_poly(self) -> APoly:
        """chi(order / I) of an integral ideal, the determinant of its
        HNF basis (monic); computed once per ideal."""
        if self._norm is None:
            if not self.is_integral():
                raise ValueError(f"{self} is not integral")
            self._norm = self.lattice.det()
        return self._norm

    def contains(self, coords, den: APoly | None = None) -> bool:
        return self.lattice.contains(coords, den)

    def contains_one(self) -> bool:
        return self.lattice.contains(self.order.one_coords)

    def mul(self, other: FracIdeal) -> FracIdeal:
        if self.order is not other.order and self.order != other.order:
            raise InternalError("ideal product across different orders")
        den = self.lattice.den * other.lattice.den
        return _product_ideal(self.order, self.lattice.cols, other.lattice.cols, den)

    def mul_elem(self, coords: list[APoly], den: APoly | None = None) -> FracIdeal:
        """The ideal I * u for an element u given in order coordinates."""
        if not any(coords):
            raise EmptyIdeal("multiplication by zero element")
        d = self.lattice.den if den is None else self.lattice.den * den
        return _product_ideal(self.order, self.lattice.cols, [coords], d)

    def colon(self, other: FracIdeal) -> FracIdeal:
        """(self : other) = {x in Ftilde : x * other <= self}."""
        if self.order is not other.order and self.order != other.order:
            raise InternalError("colon across different orders")
        order = self.order
        fq = order.fq
        s = order.s
        # make the divisor integral; (I : bJ) = b * (I : J)
        b_den = other.lattice.den
        j_int = other.scaled_integral()
        chi = j_int.norm_poly()
        if chi.degree == 0:
            # divisor is the unit ideal
            result = FracIdeal(order, self.lattice)
        else:
            cols_i = [list(c) for c in self.lattice.cols]
            gcols = [list(c) for c in j_int.lattice.cols]
            # rho[j][k] = coordinates of iota_j * g_k in the basis of self
            rho = []
            for j in range(s):
                row = []
                for k in range(s):
                    prod = order.mul_coords(cols_i[j], gcols[k])
                    coords = self.lattice.coords(prod, self.lattice.den)
                    if coords is None:
                        raise InternalError("ideal is not a module over its order")
                    row.append(coords)
                rho.append(row)
            degc = chi.degree
            nunk = s * degc
            # condition: sum_j w_j * rho[j][k] = 0 mod chi, per k and
            # coordinate: row ((k*s + m)*degc + i), column j*degc + a
            cols_sys = []
            for j in range(s):
                for a in range(degc):
                    ta = APoly(fq, [0] * a + [1])
                    entries = [((e * ta) % chi).coeffs for row in rho[j] for e in row]
                    cols_sys.append([c for e in entries for c in e + (0,) * (degc - len(e))])
            kernel = nullspace(fq, dense_system(fq, cols_sys), nunk)
            gens = []
            for w in kernel:
                wpolys = [APoly(fq, w[j * degc : (j + 1) * degc]) for j in range(s)]
                vec = [APoly.zero(fq)] * s
                for j in range(s):
                    if wpolys[j]:
                        for m in range(s):
                            if cols_i[j][m]:
                                vec[m] = vec[m] + wpolys[j] * cols_i[j][m]
                gens.append(vec)
            for j in range(s):
                gens.append([chi * v for v in cols_i[j]])
            lat = ALattice.from_generators(fq, s, gens, chi * self.lattice.den)
            result = FracIdeal(order, lat)
        if b_den.degree > 0:
            result = result.scale(b_den)
        return result

    def dual(self) -> FracIdeal:
        """The trace dual {x : Tr(x * I) <= A}.

        With G the trace Gram matrix of the order and I spanned by the
        columns of B / d, x = sum c_i e_i lies in the dual exactly when
        c^T G B / d is integral. So the dual is spanned by the columns of
        d G^-1 B^-T = d adj(G) adj(B)^T / (det G det B)."""
        order = self.order
        fq, s = order.fq, order.s
        det_g, adj_g = order.trace_form
        cols = self.lattice.cols
        det_b, adj_b = mat_solve(
            [[col[i] for col in cols] for i in range(s)], mat_identity(fq, s)
        )
        d = self.lattice.den
        gens = []
        for k in range(s):
            vec = []
            for i in range(s):
                acc = APoly.zero(fq)
                for a, b in zip(adj_g[i], adj_b[k]):
                    if a and b:
                        acc = acc + a * b
                vec.append(acc * d)
            gens.append(vec)
        return FracIdeal(order, ALattice.from_generators(fq, s, gens, det_g * det_b))

    def multiplicator_ring(self) -> AOrder:
        """O_I = (I : I), an overorder of the ambient order."""
        oi = self.colon(self)
        pi_lat = self.order.ideal_lattice_to_pi(oi.lattice)
        return order_from_pi_lattice(self.order.ext, pi_lat, module=self.order.module, tag="O_I")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FracIdeal)
            and self.order == other.order
            and self.lattice == other.lattice
        )

    def __hash__(self) -> int:
        return hash(self.lattice)

    def __repr__(self) -> str:
        return f"FracIdeal({self.lattice!r})"


def _product_ideal(order: AOrder, xs, ys, den: APoly | None) -> FracIdeal:
    """The ideal spanned by every product x * y of integral coordinate
    vectors, over den: the HNF of the products."""
    gens = [order.mul_coords(x, y) for x in xs for y in ys]
    return FracIdeal(order, ALattice.from_generators(order.fq, order.s, gens, den))


# -- Gorenstein testing: monogenic orders, then the trace dual --


def trace_dual(order: AOrder) -> FracIdeal:
    """The lattice {x : Tr(x * order) <= A} in order coordinates."""
    return order.unit_ideal().dual()


def gorenstein_conductor(order: AOrder) -> APoly:
    """chi(order / C) for C = D * (order : D) with D the trace dual; the
    order is Gorenstein at ell exactly when ell does not divide this
    index. InseparableExtension when the trace form degenerates.

    A monogenic order A[w] is Gorenstein, its trace dual being
    m_w'(w)^-1 A[w] (Euler's lemma), so the conductor is 1 without any
    ideal arithmetic in two cases: rank s <= 2, where O = A + A w over the
    PID A, and O = A[pi], whose lattice in power coordinates is the
    identity. Other orders take `_dual_conductor`."""
    if not order.ext.is_separable():
        raise InseparableExtension("trace form degenerates; dual undefined")
    if order.s <= 2 or order.pi_lattice == ALattice.identity(order.fq, order.s):
        return APoly.one(order.fq)
    return _dual_conductor(order)


def _dual_conductor(order: AOrder) -> APoly:
    """The Gorenstein conductor by ideal arithmetic: trace duality
    (I : J) = (J * I^dual)^dual gives (order : D) = (D * D)^dual, so no
    colon is solved."""
    dual = trace_dual(order)
    c = dual.mul(dual.mul(dual).dual())
    if not c.is_integral():
        raise InternalError("Gorenstein conductor ideal is not integral")
    return c.norm_poly()


def is_gorenstein_at(order: AOrder, ell: APoly) -> bool:
    if not ell.is_irreducible():
        raise ValueError("Gorenstein test requires a prime of A")
    return bool(gorenstein_conductor(order) % ell)


def is_gorenstein(order: AOrder) -> bool:
    return gorenstein_conductor(order).degree == 0


# -- bounded enumeration and linear equivalence --


def ideals_of_norm_degree(order: AOrder, total: int):
    """Every integral ideal I with deg chi(order/I) = total, exactly once,
    as HNF lattices: by diagonal degrees (deg d_0, ..., deg d_(s-1)) with
    deg d_0 ascending, then by the digits (coefficients from T^0 up) of
    d_0, ..., d_(s-1), then of the entries right of the diagonal, each
    padded to the degree of its row's diagonal entry.

    A rank-2 order with basis (1, w) takes the closed form of
    `_quadratic_ideals`; any other order walks every HNF matrix and keeps
    those closed under the order (`_hnf_filter_ideals`). The size guard
    bounds the largest diagonal shape, q^(s * total) candidates, and is
    checked once before the first ideal."""
    fq = order.fq
    s = order.s
    if _exceeds(fq.q, s * total, 10**6):
        raise TooLarge("ideal enumeration beyond desk scale")
    if s == 2 and order.one_coords == [APoly.one(fq), APoly.zero(fq)]:
        yield from _quadratic_ideals(order, total)
    else:
        yield from _hnf_filter_ideals(order, total)


def _quadratic_ideals(order: AOrder, total: int):
    """The integral ideals of norm degree total of a rank-2 order A + A w,
    in closed form and in the sequence of `_hnf_filter_ideals`.

    An HNF lattice I with columns (d0, 0) and (b, d1), deg b < deg d0, is
    an ideal exactly when it is closed under w.
    * w * d0 = d0 w lies in I only if d1 | d0, and then
      d0 w - (d0 / d1)(b + d1 w) = -(d0 / d1) b must lie in d0 A, so d1 | b.
      Hence I = a * (c A + (b' + w) A) with monic a = d1 and c = d0 / a,
      b' = b / a, 2 deg a + deg c = total and deg b' < deg c; and then
      w * a c = c * a (b' + w) - b' * a c does lie in I.
    * With w^2 = w2[0] + w2[1] w (`AOrder.table`),
      w * a (b' + w) - (b' + w2[1]) * a (b' + w) = a (w2[0] - (b' + w2[1]) b'),
      which lies in I, that is in a c A, exactly when
      c | w2[0] - (b' + w2[1]) b' = m_w(-b'), m_w the minimal polynomial
      of w.
    This is the description of the ideals of a quadratic order in Cohen,
    "A Course in Computational Algebraic Number Theory", GTM 138, sec. 5.2.
    A rejected candidate costs one remainder and builds no lattice; each
    shape is sorted into the digit order of the HNF walk."""
    fq = order.fq
    one = APoly.one(fq)
    zero = APoly.zero(fq)
    w2 = order.table[1][1]
    for deg_a in range(total // 2, -1, -1):
        deg_c = total - 2 * deg_a
        # m_w(-b') for every b' of degree < deg c: one product each
        norms = [(bp, w2[0] - (bp + w2[1]) * bp) for bp in _polys_below_degree(fq, deg_c)]
        shape = []
        for c in monic_polys(fq, deg_c):
            bps = [bp for bp, m in norms if not m % c]
            for a in monic_polys(fq, deg_a):
                d0 = a * c
                for bp in bps:
                    b = a * bp
                    shape.append(((d0.coeffs, a.coeffs, b.coeffs), d0, b, a))
        # digit tuples carry no trailing zero and 0 is the least digit, so
        # they compare as their zero-padded digits do
        shape.sort(key=lambda entry: entry[0])
        for _, d0, b, a in shape:
            yield FracIdeal(order, ALattice(fq, 2, ((d0, zero), (b, a)), one))


def _hnf_filter_ideals(order: AOrder, total: int):
    """The integral ideals of norm degree total, in the sequence that
    `ideals_of_norm_degree` states: every HNF matrix whose diagonal
    degrees sum to total, kept when it is closed under the order."""
    s = order.s
    fq = order.fq
    one = APoly.one(fq)
    zero = APoly.zero(fq)
    # multiplying by 1 maps every lattice to itself
    basis_vecs = [e for e in mat_identity(fq, s) if e != order.one_coords]
    for diag_degs in _compositions(total, s):
        offslots = []
        for i in range(s):
            for j in range(i + 1, s):
                offslots.append((i, j, diag_degs[i]))
        diag_iters = [list(monic_polys(fq, d)) for d in diag_degs]
        off_iters = [list(_polys_below_degree(fq, d)) for (_, _, d) in offslots]
        for diag in itertools.product(*diag_iters):
            for offs in itertools.product(*off_iters):
                cols = [[zero] * s for _ in range(s)]
                for i in range(s):
                    cols[i][i] = diag[i]
                for (slot, (i, j, _)) in zip(offs, offslots):
                    cols[j][i] = slot
                if not _closed_under_order(order, cols, basis_vecs):
                    continue
                lat = ALattice(fq, s, [tuple(c) for c in cols], one)
                yield FracIdeal(order, lat)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _polys_below_degree(fq, d: int):
    if d == 0:
        yield APoly.zero(fq)
        return
    for tup in itertools.product(range(fq.q), repeat=d):
        yield APoly(fq, list(tup))


def _closed_under_order(order: AOrder, cols, basis_vecs) -> bool:
    lat = ALattice(order.fq, order.s, [tuple(c) for c in cols], APoly.one(order.fq))
    for bv in basis_vecs:
        for c in cols:
            prod = order.mul_coords(bv, list(c))
            if not lat.contains(prod):
                return False
    return True


def _norm_form(order: AOrder, cols) -> dict[tuple[int, ...], APoly]:
    """N(sum c_i w_i) = det(sum c_i M_i) as a form of degree s in the c_i,
    for integral vectors w_i with multiplication matrices M_i: a map from
    exponent tuples to coefficients. The determinant is multilinear in
    the rows, so each monomial collects the determinants
    det(M_sigma(r)[r]) of the row choices sigma with its exponents."""
    s = order.s
    basis_vecs = mat_identity(order.fq, s)
    mats = [[order.mul_coords(w, e) for e in basis_vecs] for w in cols]
    form: dict[tuple[int, ...], APoly] = {}
    for sigma in itertools.product(range(s), repeat=s):
        exps = tuple(sigma.count(i) for i in range(s))
        d = mat_det([mats[i][r] for r, i in enumerate(sigma)])
        form[exps] = form[exps] + d if exps in form else d
    return form


@lru_cache(maxsize=16)
def _box_values(fq, bound_deg: int, s: int) -> tuple:
    """The polynomials of degree <= bound_deg in lexicographic order of
    their digits (coefficients from T^0 up), each with its powers 0..s
    and its first nonzero digit (0 for the zero polynomial)."""
    out = []
    for c in _polys_below_degree(fq, bound_deg + 1):
        pw = [APoly.one(fq)]
        for _ in range(s):
            pw.append(pw[-1] * c)
        out.append((c, tuple(pw), next((v for v in c.coeffs if v), 0)))
    return tuple(out)


def _norm_hits(form: dict[tuple[int, ...], APoly], values: tuple, want: APoly):
    """Coefficient vectors c over `values` (see _box_values) whose form(c)
    is a unit times the monic `want`, in lexicographic order of their
    digits and one per F_q^x line: the first nonzero digit is 1.

    The form restricted to a prefix of c is sum_k part_k * c^k in the last
    coordinate c, and the degree of each term depends on deg c alone.
    Before form(c) is built, a sieve settles its degree from the terms
    tied at the top degree: their leading coefficients sum to
    S = sum lc(part_k) * lc(c)^k, one F_q sum. A lone top term at
    want.degree passes; a tie at want.degree passes only if S != 0 (the
    tie does not cancel), a tie above it only if S = 0 (it cancels and
    may land lower); every other c has the wrong degree. The sieve drops
    only candidates of the wrong degree, so the hits and their order are
    those of building form(c) for every vector."""
    s = len(next(iter(form)))
    fq = want.fq
    add, mul = fq._add, fq._mul
    terms = [(exps, coef) for exps, coef in form.items() if coef]
    degrees = range(-1, max(c.degree for c, _, _ in values) + 1)
    for prefix, lead, part in _restricted_forms(terms, values, s, s - 1, 0):
        # per deg c: the terms (k, lc(part_k)) tied at the top degree and
        # whether their sum S must vanish; no entry means the wrong degree
        sieve = {}
        for dc in degrees:
            top, tied = -1, []
            for k, p in enumerate(part):
                if p and (dc >= 0 or not k):
                    d = p.degree + k * dc
                    if d > top:
                        top, tied = d, []
                    if d == top:
                        tied.append((k, p.coeffs[-1]))
            if top == want.degree:
                sieve[dc] = (tied, False)
            elif top > want.degree and len(tied) > 1:
                sieve[dc] = (tied, True)
        for c, pw, v in values:
            if not lead and v != 1:
                continue
            rule = sieve.get(c.degree)
            if rule is None:
                continue
            tied, cancel = rule
            lc_sum = 0
            for k, lk in tied:
                lc_sum = add[lc_sum][mul[lk][pw[k].coeffs[-1]]]
            if (lc_sum == 0) != cancel:
                continue
            val = part[0]
            for k in range(1, s + 1):
                if part[k]:
                    val = val + part[k] * pw[k]
            if val.degree == want.degree and val.monic() == want:
                yield prefix + [c]


def _restricted_forms(terms: list, values: tuple, s: int, depth: int, lead: int):
    """(prefix, lead, part) for every prefix (c_1, ..., c_depth) over
    `values` whose first nonzero digit, continuing `lead` (0 while every
    earlier coordinate is zero), is at most 1, in lexicographic order of
    digits: lead is the prefix's first nonzero digit (or 0) and part[k]
    the coefficient of c^k in the form restricted to the prefix, a
    polynomial in the last coordinate c, with k = 0, ..., s.

    The terms are (exps, coef) of a form of degree s, exps over the
    coordinates from c_1 on.
    The form is folded one coordinate at a time: c_1 is substituted once
    and the folded terms serve every later coordinate."""
    zero = APoly.zero(values[0][0].fq)
    if depth == 0:
        # s = 1: the empty prefix
        part = [zero] * (s + 1)
        for exps, coef in terms:
            part[exps[0]] = part[exps[0]] + coef
        yield [], lead, part
        return
    for c, pw, v in values:
        if not lead and v > 1:
            continue
        if depth == 1:
            part = [zero] * (s + 1)
            for exps, coef in terms:
                if exps[0]:
                    coef = coef * pw[exps[0]]
                part[exps[1]] = part[exps[1]] + coef
            yield [c], lead or v, part
            continue
        folded: dict[tuple[int, ...], APoly] = {}
        for exps, coef in terms:
            if exps[0]:
                coef = coef * pw[exps[0]]
            rest = exps[1:]
            folded[rest] = folded[rest] + coef if rest in folded else coef
        rest_terms = [(exps, coef) for exps, coef in folded.items() if coef]
        for prefix, lead_p, part in _restricted_forms(rest_terms, values, s, depth - 1, lead or v):
            yield [c] + prefix, lead_p, part


def _norm_target(ideal: ALattice, other: ALattice, den: APoly) -> APoly | None:
    """For u = sum c_i w_i / den, N(u) = form(c) / den^s is a unit times
    N(I) / N(J), for I and J with these lattices, exactly when form(c) is
    a unit times the monic polynomial returned: det(I) (den(J) den)^s
    divided by den(I)^s det(J). None when that division leaves a
    remainder: then no u matches."""
    s = ideal.dim
    want, r = divmod(ideal.det() * (other.den * den) ** s, ideal.den**s * other.det())
    return None if r else want


def lin_equiv(ideal: FracIdeal, other: FracIdeal, bound_deg: int | None = None):
    """Linear equivalence test: ("yes", (coords, den)) with
    ideal = other.mul_elem(coords, den) exactly, the witness u = coords /
    den in the order's basis; ("no", None) certified by failure of weak
    equivalence; or ("unknown", None) when the search bound is exhausted.

    The search runs over u = sum c_i w_i / den for the basis w_i / den
    of (ideal : other) and deg c_i <= bound_deg. A candidate must first
    have N(u) equal to N(ideal) / N(other) up to a unit. Hits are closed
    under F_q^x scaling, so one vector per line is tried, and the first
    hit in lexicographic order of the whole box is the one returned.
    The norm is built only for candidates whose leading terms give it the
    target's degree: a tie of top terms at that degree must not cancel,
    a tie above it must (see _norm_hits). The size guard compares
    q^(s(bound_deg+1)) with its limit without building the power.
    Without a bound_deg the radius is the largest of 2, 1, 0 that the
    guard admits; when none is, the guard decides as it does for a radius
    it rejects.

    A witness proves weak equivalence as well, so (other : ideal) and
    the product (ideal : other)(other : ideal) are computed only when
    no witness is found, or before the size guard raises: a weakly
    inequivalent pair answers "no" whatever the bound."""
    order = ideal.order
    if ideal == other:
        return "yes", (list(order.one_coords), APoly.one(order.fq))
    quot = ideal.colon(other)
    s = order.s
    fq = order.fq
    radii = (2, 1, 0) if bound_deg is None else (bound_deg,)
    bound_deg = next((b for b in radii if not _exceeds(fq.q, s * (b + 1), 5 * 10**5)), None)
    if bound_deg is None:
        if not _weakly_equivalent(ideal, other, quot):
            return "no", None
        raise TooLarge("linear-equivalence search space beyond desk scale")
    cols = [list(c) for c in quot.lattice.cols]
    den = quot.lattice.den
    want = _norm_target(ideal.lattice, other.lattice, den)
    if want is not None:
        form = _norm_form(order, cols)
        for combo in _norm_hits(form, _box_values(fq, bound_deg, s), want):
            coords = [APoly.zero(fq)] * s
            for c, col in zip(combo, cols):
                if c:
                    for m in range(s):
                        if col[m]:
                            coords[m] = coords[m] + c * col[m]
            if other.mul_elem(coords, den) == ideal:
                return "yes", (coords, den)
    if not _weakly_equivalent(ideal, other, quot):
        return "no", None
    return "unknown", None


def _exceeds(q: int, e: int, limit: int) -> bool:
    """Whether q^e > limit, multiplying up only until the limit is passed:
    a huge search bound must not build the whole power."""
    v = 1
    for _ in range(e):
        if v > limit:
            return True
        v *= q
    return v > limit


def _weakly_equivalent(ideal: FracIdeal, other: FracIdeal, quot: FracIdeal) -> bool:
    """Whether (ideal : other)(other : ideal) contains 1, given
    quot = (ideal : other)."""
    return quot.mul(other.colon(ideal)).contains_one()
