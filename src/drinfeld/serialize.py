"""JSON schemas and report assembly for the command-line tools.

Field spec:   {"p": 2, "e": 1, "h": [0, 1], "n": 4, "g": [1, 1, 0, 0, 1]}
Module spec:  {"field": {...}, "phi_T": [[...], [...], ...]}
Ideal spec:   {"generators": [[...], ...]}  (A-coordinate vectors
              relative to the computed endomorphism basis, in the order
              the endring report emits it)

Coefficient arrays are little-endian. F_q scalars are plain integers
mod p when e = 1 and little-endian arrays over F_p otherwise. A key that
a spec does not define is an input error (`json_keys`).
"""

from __future__ import annotations

import json
from functools import lru_cache

from .apoly import APoly, poly_gcd
from .errors import InseparableExtension
from .fields import FieldTower, KElem, base_field
from .invariants import FrobeniusProfile
from .lattices import ALattice, lattice_index
from .modules import DrinfeldModule
from .orders import (
    AOrder,
    FracIdeal,
    endomorphism_ring,
    gorenstein_conductor,
)
from .apoly import prime_divisors
from .skew import SkewPoly


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- input values --


class SpecError(ValueError):
    """An input error that names its field and, for objects read by the
    CLI, its file; `json_field` passes it on unchanged from a nested
    object."""


def _where(data: dict) -> str:
    """The file prefix of an input error, for objects read by the CLI."""
    path = getattr(data, "path", None)
    return f"{path}: " if path else ""


def json_field(data: dict, key: str, parse):
    """parse(data[key]), where an invalid value is an input error that
    names the field and, for objects read by the CLI, the file."""
    value = data[key]
    try:
        return parse(value)
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{_where(data)}field {key!r}: {exc}") from None


def json_keys(data: dict, known: tuple[str, ...]) -> None:
    """Reject a key of data outside known: a misspelt or unsupported field
    is an input error, not silently ignored."""
    for key in data:
        if key not in known:
            expected = ", ".join(repr(k) for k in known)
            raise SpecError(f"{_where(data)}unknown field {key!r} (expected {expected})")


def _integer(v) -> int:
    # bool is a subclass of int; floats and numeric strings are not coerced
    if type(v) is not int:
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def json_object(v) -> dict:
    if not isinstance(v, dict):
        raise ValueError("expected a JSON object")
    return v


def _array(v) -> list:
    if not isinstance(v, list):
        raise ValueError(f"expected an array, got {v!r}")
    return v


def _digit(p: int, v) -> int:
    if type(v) is not int or not 0 <= v < p:
        raise ValueError(f"expected an integer in [0, {p}), got {v!r}")
    return v


# -- scalars --


def scalar_to_json(tower_or_fq, v: int):
    fq = getattr(tower_or_fq, "fq", tower_or_fq)
    if fq.e == 1:
        return v
    return fq._digits(v)


def scalar_from_json(fq, data) -> int:
    """An integer in [0, p) or an array of at most e such F_p digits."""
    digits = data if isinstance(data, list) else [data]
    if len(digits) > fq.e:
        raise ValueError("scalar has too many base-field digits")
    digits = [_digit(fq.p, c) for c in digits]
    return fq._encode(digits + [0] * (fq.e - len(digits)))


def kelem_to_json(tower: FieldTower, x: KElem):
    return [scalar_to_json(tower.fq, c) for c in x.coeffs]


def kelem_from_json(tower: FieldTower, data) -> KElem:
    if not isinstance(data, list):
        data = [data]
    coeffs = [scalar_from_json(tower.fq, c) for c in data]
    if len(coeffs) > tower.n:
        raise ValueError("element has more coordinates than [k : F_q]")
    return tower.elem(coeffs)


def apoly_to_json(a: APoly):
    return [scalar_to_json(a.fq, c) for c in a.coeffs]


def apoly_from_json(fq, data) -> APoly:
    if not isinstance(data, list):
        data = [data]
    return APoly(fq, [scalar_from_json(fq, c) for c in data])


# -- towers and modules --


def field_to_json(tower: FieldTower) -> dict:
    return {
        "p": tower.p,
        "e": tower.e,
        "h": list(tower.fq.h),
        "n": tower.n,
        "g": [scalar_to_json(tower.fq, c) for c in tower.g],
    }


def field_from_json(data: dict) -> FieldTower:
    json_keys(data, ("p", "e", "h", "n", "g"))
    p, e, n = (json_field(data, key, _integer) for key in ("p", "e", "n"))
    h = json_field(data, "h", lambda v: tuple(_digit(p, c) for c in _array(v)))
    # g coefficients may be ints (e = 1) or digit arrays
    fq = base_field(p, e, h)
    g = json_field(data, "g", lambda v: [scalar_from_json(fq, c) for c in _array(v)])
    return FieldTower(p, e, h, n, g)


def module_to_json(module: DrinfeldModule) -> dict:
    return {
        "field": field_to_json(module.tower),
        "phi_T": [kelem_to_json(module.tower, c) for c in module.coeff_vector()],
    }


# Requests for one module arrive together, as a session (analyze, endring,
# then ideal-act or kernel-test), as in the benchmark's `queries` traffic,
# whose sessions are shuffled as whole units. One entry serves that: a pass
# of 61 modules builds 61 profiles, as a larger cache does. It also keeps a
# long-lived process's memory flat, holding one module's profile and End.
@lru_cache(maxsize=1)
def shared_module(tower: FieldTower, phi_t: SkewPoly) -> DrinfeldModule:
    """The module phi_T over tower, one object per value for the requests
    of one process, so its profile and End (`cached_property`) are built
    once for all of them. A failed construction is not cached."""
    return DrinfeldModule(tower, phi_t)


def module_from_json(data: dict) -> DrinfeldModule:
    json_keys(data, ("field", "phi_T"))
    tower = json_field(data, "field", lambda v: field_from_json(json_object(v)))
    coeffs = json_field(data, "phi_T", lambda v: _phi_t_coeffs(tower, v))
    return shared_module(tower, SkewPoly(tower, coeffs))


def _phi_t_coeffs(tower: FieldTower, v) -> list[KElem]:
    # the last entry gives the rank: a zero there would be read as a lower rank
    coeffs = [kelem_from_json(tower, c) for c in _array(v)]
    if len(coeffs) < 2:
        raise ValueError("expected at least two entries, for a positive tau-degree")
    if not coeffs[-1]:
        raise ValueError("the last entry, the coefficient of tau^r, must be nonzero")
    return coeffs


def ideal_vectors_from_json(fq, data: dict) -> list[list[APoly]]:
    """The generator vectors of an ideal spec, A-coordinates over fq. The
    keys, the shape and every coefficient are checked here, so a malformed
    spec fails before End is built; only the length of each vector waits
    for End's basis (`ideal_from_vectors`)."""
    json_keys(data, ("generators",))
    return json_field(
        data, "generators", lambda v: [[apoly_from_json(fq, c) for c in _array(vec)] for vec in _array(v)]
    )


def ideal_from_vectors(order: AOrder, data: dict, vecs: list[list[APoly]]) -> FracIdeal:
    """The ideal of order generated by the vectors `ideal_vectors_from_json`
    read from data, each padded with zeros to the basis length."""
    if any(len(vec) > order.s for vec in vecs):
        raise ValueError(f"{_where(data)}field 'generators': generator vector longer than the basis")
    zero = APoly.zero(order.fq)
    return FracIdeal.from_generators(order, [vec + [zero] * (order.s - len(vec)) for vec in vecs])


# -- reports --


def analyze_report(module: DrinfeldModule) -> dict:
    prof: FrobeniusProfile = module.profile()
    return {
        "p_char": module.char_prime.text(),
        "m": prof.min_poly_text(),
        "m_coeffs": [apoly_to_json(c) for c in prof.min_poly],
        "m_tilde": prof.m_tilde_text(),
        "m_tilde_coeffs": [apoly_to_json(c) for c in prof.m_tilde],
        "s": prof.s,
        "NK": prof.nk,
        "H": prof.height,
        "d": prof.d,
        "n": prof.n,
        "r": prof.r,
        "ordinary": prof.is_ordinary,
        "locally_maximal": prof.is_locally_maximal,
        "lhs": prof.lhs,
        "rhs": prof.rhs,
        "invariant_solutions": sorted(list(t) for t in prof.invariant_solutions),
        "end_ring_commutative": prof.end_ring_commutative,
        "corollaries": prof.corollary_checks(),
    }


def reduced_basis(order: AOrder) -> list[tuple[list[APoly], APoly]]:
    """Each basis element of order as (nums, den) in power coordinates, in
    lowest terms: the column and the basis denominator divided by their
    gcd, den monic, so den is 1 for a zero column."""
    rows, den = order.basis_matrix
    out = []
    for col in zip(*rows):
        nums, d = list(col), den
        g = d
        for v in nums:
            if v:
                g = poly_gcd(g, v)
        if g.degree > 0:
            nums = [v.exact_div(g) if v else v for v in nums]
            d = d.exact_div(g)
        if not d.is_monic():
            u = order.fq.inv(d.lc())
            nums = [v.scale(u) for v in nums]
            d = d.scale(u)
        out.append((nums, d))
    return out


def endring_report(module: DrinfeldModule) -> dict:
    order = endomorphism_ring(module)
    # A[pi] has the power basis, so its pi-lattice is the identity
    index = lattice_index(order.pi_lattice, ALattice.identity(order.fq, order.s))
    basis = []
    for skew, (nums, den) in zip(order.skew_basis, reduced_basis(order)):
        basis.append(
            {
                "skew": skew.text(),
                "pi_coords": [c.text() for c in nums],
                "den": den.text(),
            }
        )
    table = [
        [[c.text() for c in order.table[i][j]] for j in range(order.s)]
        for i in range(order.s)
    ]
    report = {
        "rank": order.s,
        "basis": basis,
        "mult_table": table,
        "index_over_minimal": index.text(),
        # endomorphism rings are always locally maximal at pi; recorded,
        # not re-verified (completions are out of scope)
        "locally_maximal_at_pi": True,
    }
    try:
        cond = gorenstein_conductor(order)
        report["gorenstein"] = cond.degree == 0
        report["gorenstein_conductor"] = cond.text()
        singular = sorted(
            {p for p in prime_divisors(index) + prime_divisors(cond) if p.degree > 0},
            key=lambda q: (q.degree, q.text()),
        )
        report["gorenstein_at"] = {p.text(): bool(cond % p) for p in singular}
    except InseparableExtension:
        report["gorenstein"] = None
        report["gorenstein_conductor"] = None
        report["gorenstein_at"] = {}
        report["gorenstein_note"] = "inseparable Frobenius field; verdict undecided"
    return report


def ideal_act_report(module: DrinfeldModule, ideal_data: dict) -> dict:
    from .action import act

    vecs = ideal_vectors_from_json(module.tower.fq, ideal_data)
    order = endomorphism_ring(module)
    result = act(module, ideal_from_vectors(order, ideal_data, vecs))
    tower = module.tower
    report = {
        "u": result.u.text(),
        "u_degree": result.u.degree,
        "psi_T": [kelem_to_json(tower, c) for c in result.image.coeff_vector()],
        "psi_T_text": result.image.phi_t.text(),
        "ideal_norm": result.ideal.norm_poly().text(),
        "kernel": result.is_kernel,
        "witness": [c.text() for c in result.witness] if result.witness else None,
        "annihilator_norm": result.annihilator.norm_poly().text(),
    }
    return report


def kernel_test_report(module: DrinfeldModule, ideal_data: dict) -> dict:
    report = ideal_act_report(module, ideal_data)
    return {
        "kernel": report["kernel"],
        "witness": report["witness"],
        "ideal_norm": report["ideal_norm"],
        "annihilator_norm": report["annihilator_norm"],
    }


def render_text(report: dict, indent: int = 0) -> str:
    """Plain-text rendering of a JSON report."""
    lines = []
    pad = "  " * indent
    for key in report:
        val = report[key]
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_text(val, indent + 1))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{pad}{key}:")
            for item in val:
                lines.append(render_text(item, indent + 1))
                lines.append(pad + "  -")
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(lines)
