"""The twisted polynomial ring k{tau} with tau * a = a^q * tau.

Degrees are additive (k is a field, so there are no zero divisors), and
the ring has a right division algorithm: every left ideal is principal.
Right gcds therefore compute generators of left ideals, which is how
isogenies u_I are produced. The right gcd returned here is normalized to
have leading coefficient one; ideal generators are only defined up to a
left unit, and fixing the monic representative makes results reproducible.

Hom(phi, psi), the u with u phi_T = psi_T u, is F_q-linear in the
tau-coefficients of u: `hom_system(phi_T, psi_T, cap)` is its matrix on u
of degree at most cap. With psi = phi its kernel is the centralizer
(End, `orders.centralizer_basis`); at cap 0 it is the constants c with
c phi_T = psi_T c, the isomorphisms (`modules.find_isomorphism`).

Where k has discrete-log tables (`FieldTower._tables`), products, right
division and the Hom system run on logarithms: each operand is converted
once, a term a_i * b_j^(q^i) is (log a_i + log b_j * q^i) mod (q^n - 1),
and sums go through the Zech table. Zero coefficients are None there.
Larger towers multiply and divide KElem by KElem, with the same results.

F_q-linear combinations sum v * S (phi_a, skew realizations, m(pi)) read
the F_q tables on coefficient coordinates instead (`fq_combination`).
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import ContextError, EmptyIdeal
from .fields import FieldTower, KElem, _LogTables


class SkewPoly:
    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs=()):
        c = list(coeffs)
        while c and not c[-1]:
            c.pop()
        self.tower = tower
        self.coeffs = tuple(c)

    @staticmethod
    def zero(tower: FieldTower) -> SkewPoly:
        return SkewPoly(tower, ())

    @staticmethod
    def one(tower: FieldTower) -> SkewPoly:
        return SkewPoly(tower, (tower.one,))

    @staticmethod
    def tau_power(tower: FieldTower, j: int, coeff: KElem | None = None) -> SkewPoly:
        c = coeff if coeff is not None else tower.one
        return SkewPoly(tower, (tower.zero,) * j + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def lc(self) -> KElem:
        if not self.coeffs:
            raise ValueError("leading coefficient of zero")
        return self.coeffs[-1]

    def tau_valuation(self) -> int:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return -1

    def __getitem__(self, i: int) -> KElem:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.tower.zero

    def _check(self, other: SkewPoly) -> None:
        if self.tower is not other.tower and self.tower != other.tower:
            raise ContextError("skew polynomials over different towers")

    def __add__(self, other: SkewPoly) -> SkewPoly:
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return SkewPoly(self.tower, out)

    def __sub__(self, other: SkewPoly) -> SkewPoly:
        self._check(other)
        a, b = self.coeffs, other.coeffs
        out = list(a) + [self.tower.zero] * (len(b) - len(a))
        for i, v in enumerate(b):
            out[i] = out[i] - v
        return SkewPoly(self.tower, out)

    def __mul__(self, other: SkewPoly) -> SkewPoly:
        self._check(other)
        t = self.tower
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return SkewPoly(t, ())
        tab = t._tables
        if tab is not None:
            return _from_logs(t, tab, _mul_logs(tab, t.n, _logs(tab, a), _logs(tab, b)))
        out = [t.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj.frobq(i)
        return SkewPoly(t, out)

    def shift(self, m: int) -> SkewPoly:
        """Multiply by tau^m on the right: (a_i tau^i) tau^m = a_i tau^(i+m)."""
        return SkewPoly(self.tower, (self.tower.zero,) * m + self.coeffs)

    def left_scale(self, c: KElem) -> SkewPoly:
        """Multiply by a constant on the left: c * (a_i tau^i) = (c a_i) tau^i."""
        return SkewPoly(self.tower, [c * a for a in self.coeffs])

    def rdivmod(self, other: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
        """Right division: self = quo * other + rem with deg rem < deg other."""
        self._check(other)
        if not other.coeffs:
            raise ZeroDivisionError("right division by zero")
        t = self.tower
        tab = t._tables
        if tab is not None:
            quo, rem = _rdivmod_logs(tab, t.n, _logs(tab, self.coeffs), _logs(tab, other.coeffs))
            return _from_logs(t, tab, quo), _from_logs(t, tab, rem)
        d = other.degree
        rem = list(self.coeffs)
        quo = [t.zero] * max(0, len(rem) - d)
        glc = other.lc()
        while len(rem) > d:
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) <= d:
                break
            shift = len(rem) - 1 - d
            c = rem[-1] / glc.frobq(shift)
            quo[shift] = quo[shift] + c
            # rem -= (c tau^shift) * other
            for j, bj in enumerate(other.coeffs):
                if bj:
                    rem[shift + j] = rem[shift + j] - c * bj.frobq(shift)
            rem.pop()
        return SkewPoly(t, quo), SkewPoly(t, rem)

    def monic(self) -> SkewPoly:
        """Normalize by a left unit so the leading coefficient is one."""
        if not self.coeffs:
            return self
        return self.left_scale(self.lc().inv())

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewPoly)
            and self.coeffs == other.coeffs
            and self.tower == other.tower
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def text(self, sym: str = "t") -> str:
        if not self.coeffs:
            return "0"
        terms = []
        one = self.tower.one
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            ct = c.text(sym)
            wrapped = f"({ct})" if "+" in ct else ct
            if i == 0:
                terms.append(wrapped)
                continue
            v = "tau" if i == 1 else f"tau^{i}"
            terms.append(v if c == one else f"{wrapped}*{v}")
        return "+".join(terms)

    def __repr__(self) -> str:
        return self.text()


def fq_combination(tower: FieldTower, terms) -> Iterator[KElem]:
    """The coefficients of sum v * S over the pairs (v, S) of terms, for
    F_q scalars v (integer encodings) and S in k{tau}, computed as they are
    read from tau^0 up to the largest degree of an S with v nonzero. Each is
    summed coordinate-wise through the F_q tables, v * c as mul[v] on the
    coordinates of c: no product in k."""
    fq = tower.fq
    add, mul = fq._add, fq._mul
    zero = tower.zero.coeffs
    # longest first: at degree d the terms that reach it form a prefix
    scaled = sorted(
        ((None if v == 1 else mul[v], f.coeffs) for v, f in terms if v),
        key=lambda term: -len(term[1]),
    )
    for d in range(len(scaled[0][1]) if scaled else 0):
        acc = zero
        for row, cs in scaled:
            if d >= len(cs):
                break
            c = cs[d].coeffs
            if c == zero:
                continue
            if row is not None:
                c = map(row.__getitem__, c)
            if acc is zero:
                acc = tuple(c)
            else:
                acc = tuple(map(list.__getitem__, map(add.__getitem__, acc), c))
        yield KElem(tower, acc)


def _logs(tab: _LogTables, coeffs) -> list[int | None]:
    """The logarithms of KElem coefficients, None for zero."""
    get = tab.log.get
    return [get(c.coeffs) for c in coeffs]


def _from_logs(tower: FieldTower, tab: _LogTables, logs: list[int | None]) -> SkewPoly:
    exp, zero = tab.exp, tower.zero
    return SkewPoly(tower, [zero if v is None else KElem(tower, exp[v]) for v in logs])


def _mul_logs(tab: _LogTables, n: int, la: list, lb: list) -> list[int | None]:
    """The coefficient logarithms of (sum a_i tau^i) * (sum b_j tau^j)."""
    order, zech, qpow = tab.order, tab.zech, tab.qpow
    out = [None] * (len(la) + len(lb) - 1)
    for i, x in enumerate(la):
        if x is None:
            continue
        qi = qpow[i % n]
        for k, y in enumerate(lb, i):
            if y is None:
                continue
            z = (x + y * qi) % order
            w = out[k]
            if w is None:
                out[k] = z
            else:
                # gamma^w + gamma^z = gamma^(w + zech[z - w]); a negative
                # index reads zech at z - w + order
                s = zech[z - w]
                out[k] = None if s is None else (w + s) % order
    return out


def _rdivmod_logs(tab: _LogTables, n: int, rem: list, lb: list) -> tuple[list, list]:
    """Right division on coefficient logarithms: rem (consumed) = quo *
    b + rem, for b with logarithms lb and a nonzero leading coefficient."""
    order, zech, qpow = tab.order, tab.zech, tab.qpow
    d = len(lb) - 1
    top = lb[d]
    low = list(enumerate(lb[:d]))
    quo = [None] * max(0, len(rem) - d)
    while len(rem) > d:
        c = rem.pop()
        if c is None:
            continue
        shift = len(rem) - d
        qs = qpow[shift % n]
        c = (c - top * qs) % order
        quo[shift] = c
        # rem -= (c tau^shift) * b below the popped top: add the terms
        # -c * b_j^(q^shift), with -1 = gamma^neg
        c += tab.neg
        for k, y in low:
            if y is None:
                continue
            z = (c + y * qs) % order
            k += shift
            w = rem[k]
            if w is None:
                rem[k] = z
            else:
                s = zech[z - w]
                rem[k] = None if s is None else (w + s) % order
    return quo, rem


def hom_system(f: SkewPoly, g: SkewPoly, cap: int) -> list[tuple[int, list[int]]]:
    """The F_q-matrix of u -> u f - g u on skew polynomials u of degree at
    most cap, as sparse rows (lead, vals) in the row format of `linalg`: entry
    (d*n + m, i*n + comp) is coordinate m of the coefficient of tau^d in
    the image of c tau^i, c = x^comp. Its kernel is the u with u f = g u:
    for f = g = phi_T the centralizer of phi_T, and for f = phi_T,
    g = psi_T the isogenies phi -> psi of degree at most cap (constants
    for cap = 0, the isomorphisms).

    Column i*n + comp is read off coefficients: with f = sum f_j tau^j and
    g = sum g_j tau^j, the coefficient of tau^(i+j) in c tau^i f - g c tau^i
    is c f_j^(q^i) - g_j c^(q^j). So, with r the larger degree of f and g,
    the rows of degree d span the columns i*n + comp with
    d - r <= i <= min(d, cap).
    """
    f._check(g)
    tower = f.tower
    n = tower.n
    fs, gs = f.coeffs, g.coeffs
    r = max(len(fs), len(gs)) - 1
    fs += (tower.zero,) * (r + 1 - len(fs))
    gs += (tower.zero,) * (r + 1 - len(gs))
    # block[d][(i - lo_d)*n + comp]: the coefficient of tau^d in the image
    # of x^comp tau^i, for lo_d = max(0, d - r)
    zero = tower.zero.coeffs
    blocks = [[zero] * ((min(d, cap) - max(0, d - r) + 1) * n) for d in range(cap + r + 1)]
    tab = tower._tables
    # the entry of (i, j, comp) lies at (i - lo_(i+j))*n + comp of block
    # i + j, and i - lo_(i+j) = min(i, r - j); its second term,
    # g_j c^(q^j), does not depend on i
    if tab is None:
        # KElem arithmetic takes a zero f_j or g_j as it is
        monomials = [tower.elem([0] * comp + [1]) for comp in range(n)]
        terms = [
            (j, fj, r - j, [(c, gj * c.frobq(j)) for c in monomials])
            for j, (fj, gj) in enumerate(zip(fs, gs))
            if fj or gj
        ]
        for i in range(cap + 1):
            for j, fj, rj, cols in terms:
                fj_frob = fj.frobq(i)
                block = blocks[i + j]
                k = (i if i < rj else rj) * n
                for c, second in cols:
                    block[k] = (c * fj_frob - second).coeffs
                    k += 1
    else:
        order, zech, qpow, exp = tab.order, tab.zech, tab.qpow, tab.exp
        # logs of the monomials c = x^comp; below, a = log(c f_j^(q^i)) and
        # b = log(-g_j c^(q^j)). Terms with f_j and g_j both nonzero sum
        # the two; a term with one of them zero takes it alone (`lone_f`,
        # and `lone_g`, whose n entries are the same for every i)
        lx = [tab.log[(0,) * comp + (1,) + (0,) * (n - 1 - comp)] for comp in range(n)]
        both, lone_f, lone_g = [], [], []
        for j, (x, y) in enumerate(zip(_logs(tab, fs), _logs(tab, gs))):
            if y is None:
                if x is not None:
                    lone_f.append((j, x, r - j))
                continue
            bs = [(lc * qpow[j % n] + y + tab.neg) % order for lc in lx]
            if x is not None:
                both.append((j, x, r - j, list(zip(lx, bs))))
            else:
                lone_g.append((j, r - j, [exp[b] for b in bs]))
        for i in range(cap + 1):
            qi = qpow[i % n]
            for j, x, rj, cols in both:
                xqi = x * qi
                block = blocks[i + j]
                k = (i if i < rj else rj) * n
                for lc, b in cols:
                    a = (lc + xqi) % order
                    s = zech[b - a]
                    if s is not None:
                        block[k] = exp[(a + s) % order]
                    k += 1
            for j, x, rj in lone_f:
                xqi = x * qi
                k = (i if i < rj else rj) * n
                blocks[i + j][k : k + n] = [exp[(lc + xqi) % order] for lc in lx]
            for j, rj, entries in lone_g:
                k = (i if i < rj else rj) * n
                blocks[i + j][k : k + n] = entries
    rows = []
    for d, block in enumerate(blocks):
        lead = max(0, d - r) * n
        rows += [(lead, list(row)) for row in zip(*block)]
    return rows


def coefficient_rows(cols: list[SkewPoly], height: int) -> list[tuple[int, list[int]]]:
    """The F_q-matrix whose column c is the coefficient vector of cols[c],
    each of degree below height, as sparse rows (lead, vals) in the row
    format of `linalg`: row d*n + m holds coordinate m of the coefficients
    of tau^d and spans the columns from the first to the last one with a
    nonzero coefficient of tau^d.
    """
    tower = cols[0].tower
    n = tower.n
    zero = tower.zero.coeffs
    first: list[int | None] = [None] * height
    last = [0] * height
    for c, f in enumerate(cols):
        for d, coeff in enumerate(f.coeffs):
            if coeff.coeffs != zero:
                if first[d] is None:
                    first[d] = c
                last[d] = c
    rows = []
    for d, lead in enumerate(first):
        if lead is None:
            rows += [(0, []) for _ in range(n)]
            continue
        block = []
        for c in range(lead, last[d] + 1):
            f = cols[c].coeffs
            block.append(f[d].coeffs if d < len(f) else zero)
        rows += [(lead, list(row)) for row in zip(*block)]
    return rows


def rgcd(polys: list[SkewPoly]) -> SkewPoly:
    """Monic generator of the left ideal sum k{tau} * f_i."""
    nonzero = [f for f in polys if f]
    if not nonzero:
        raise EmptyIdeal("right gcd of the zero ideal")
    g = nonzero[0]
    for f in nonzero[1:]:
        a, b = g, f
        while b:
            a, b = b, a.rdivmod(b)[1]
        g = a
    return g.monic()


def rgcd_bezout(f: SkewPoly, g: SkewPoly) -> tuple[SkewPoly, SkewPoly, SkewPoly]:
    """Extended right Euclid: returns (d, a, b) with a*f + b*g = d monic."""
    if not f and not g:
        raise EmptyIdeal("right gcd of the zero ideal")
    t = f.tower
    r0, r1 = f, g
    a0, a1 = SkewPoly.one(t), SkewPoly.zero(t)
    b0, b1 = SkewPoly.zero(t), SkewPoly.one(t)
    while r1:
        q, r = r0.rdivmod(r1)
        r0, r1 = r1, r
        a0, a1 = a1, a0 - q * a1
        b0, b1 = b1, b0 - q * b1
    c = r0.lc().inv()
    return r0.left_scale(c), a0.left_scale(c), b0.left_scale(c)

