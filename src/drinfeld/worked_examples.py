"""Golden checks against the published worked examples this library
reproduces.

Every check recomputes from scratch and reports PASS or FAIL. Two known
misprints in the published values are reported as DISCREPANCY entries
instead: the tau-exponent of one image of the characteristic prime, and
one example whose printed parameters fail the degree relation
s * n = NK * r. A DISCREPANCY never fails the suite; a FAIL does.
"""

from __future__ import annotations

from .action import act, end_comparison
from .apoly import APoly, first_irreducible, roots_in_k
from .fields import FieldTower
from .invariants import solve_ramification_invariants
from .lattices import lattice_index
from .modules import DrinfeldModule, same_isogeny_class
from .orders import (
    FracIdeal,
    coords_in_skew_basis,
    endomorphism_ring,
    is_gorenstein,
    is_gorenstein_at,
    minimal_frobenius_order,
)
from .skew import SkewPoly, rgcd


def _entry(name: str, status: str, detail: str = "") -> dict:
    return {"name": name, "status": status, "detail": detail}


def _check(results: list, name: str, cond: bool, detail: str = "") -> bool:
    results.append(_entry(name, "PASS" if cond else "FAIL", detail))
    return cond


def _tower3(n: int) -> FieldTower:
    g = first_irreducible(FieldTower(3, 1, [0, 1], 1, [0, 1]).fq, n)
    return FieldTower(3, 1, [0, 1], n, list(g.coeffs))


def _char_root(tower: FieldTower, coeffs) -> tuple[APoly, object]:
    p = APoly(tower.fq, coeffs)
    roots = roots_in_k(tower, p)
    gen = tower.gen()
    # prefer the tower generator when it is itself a root: renderings
    # then agree with the published text
    if gen in roots:
        return p, gen
    return p, roots[0]


def check_supersingular_rank2(results: list) -> None:
    """p = T, r = 2, n = 3, phi_T = tau^2: m = x^2 - T^3, H = 2, not
    locally maximal (strict inequality 2 < 3)."""
    for q, htuple in ((2, [0, 1]), (3, [0, 1])):
        tower = FieldTower(q, 1, htuple, 3, list(first_irreducible(FieldTower(q, 1, htuple, 1, [0, 1]).fq, 3).coeffs))
        phi = DrinfeldModule(tower, SkewPoly.tau_power(tower, 2))
        prof = phi.profile()
        fq = tower.fq
        t_cubed = APoly.var(fq) ** 3
        expected_m = (-t_cubed, APoly.zero(fq), APoly.one(fq))
        _check(
            results,
            f"supersingular-rank2/q={q}/minpoly",
            prof.min_poly == expected_m,
            prof.min_poly_text(),
        )
        _check(results, f"supersingular-rank2/q={q}/height", phi.height == 2)
        _check(
            results,
            f"supersingular-rank2/q={q}/verdict",
            (prof.lhs, prof.rhs, prof.is_locally_maximal) == (2, 3, False),
            f"lhs={prof.lhs} rhs={prof.rhs}",
        )
        end = endomorphism_ring(phi)
        tau_coords = coords_in_skew_basis(phi, end.skew_basis, SkewPoly.tau_power(tower, 1))
        _check(
            results,
            f"supersingular-rank2/q={q}/end-ring",
            end.s == 2 and tau_coords is not None,
            "tau is an endomorphism; End = A[sqrt(T)]",
        )
        minimal = minimal_frobenius_order(prof, phi)
        idx = lattice_index(end.pi_lattice, minimal.pi_lattice)
        _check(
            results,
            f"supersingular-rank2/q={q}/index",
            idx == APoly.var(fq),
            f"chi(E/A[pi]) = {idx.text()}",
        )
        if q == 3:
            # separable case: maximal order, so Gorenstein
            _check(
                results,
                "supersingular-rank2/q=3/gorenstein",
                is_gorenstein(end),
            )


def check_n6_d2_tau4(results: list) -> None:
    """q=3, p=T^2+T+2, n=6, phi_T = t + tau^4: the recomputed image of p
    has tau-valuation 4 = H*d; the published exponent 2 is a misprint."""
    tower = _tower3(6)
    p, t = _char_root(tower, [2, 1, 1])
    phi = DrinfeldModule(tower, SkewPoly(tower, [t, tower.zero, tower.zero, tower.zero, tower.one]))
    img = phi(p)
    two = tower.embed_fq(2)
    one = tower.one
    expected = SkewPoly(
        tower,
        [tower.zero] * 4 + [two * t + one] + [tower.zero] * 3 + [one],
    )
    _check(
        results,
        "n6-d2-tau4/phi_p-recomputed",
        img == expected and img.tau_valuation() == 4,
        f"tau-valuation {img.tau_valuation()} = H*d",
    )
    results.append(
        _entry(
            "n6-d2-tau4/phi_p-published-exponent",
            "DISCREPANCY",
            "published (2t+1)tau^2+tau^8 has tau-valuation 2; recomputation "
            "gives (2t+1)tau^4+tau^8, consistent with H=2, d=2",
        )
    )
    prof = phi.profile()
    _check(results, "n6-d2-tau4/height", phi.height == 2)
    _check(
        results,
        "n6-d2-tau4/m-tilde",
        prof.m_tilde_text() == "x^6+(pi^2+1)*x^3+(pi^4+2*pi^2+2)",
        prof.m_tilde_text(),
    )
    _check(
        results,
        "n6-d2-tau4/verdict",
        prof.nk == 6 and not prof.is_locally_maximal,
        f"NK={prof.nk}",
    )


def check_n8_maximal(results: list) -> None:
    """q=3, n=8, p=T^2+T+2: H=2, NK=4 and equality holds, so A[pi] is
    maximal at pi.

    The published phi_T = t+tau+(2t+1)tau^2+2tau^3+tau^4 does not match
    the published minimal polynomial: exhaustive search over the
    provable coefficient bounds shows its Frobenius satisfies no
    degree-2 relation ([Ftilde:F] = 4, not locally maximal). Restoring
    a dropped factor t on the leading coefficient reproduces every
    published value, so the corrected module carries the assertions and
    the misprint is reported as a discrepancy."""
    tower = _tower3(8)
    p, t = _char_root(tower, [2, 1, 1])
    two = tower.embed_fq(2)
    one = tower.one
    printed = DrinfeldModule(tower, SkewPoly(tower, [t, one, two * t + one, two, one]))
    printed_prof = printed.profile()
    results.append(
        _entry(
            "n8-maximal/published-phi_T",
            "DISCREPANCY",
            "published phi_T (leading coefficient 1) has [Ftilde:F]="
            f"{printed_prof.s}, NK={printed_prof.nk}, locally_maximal="
            f"{printed_prof.is_locally_maximal}, contradicting the published "
            "m_tilde; with leading coefficient t every published value holds",
        )
    )
    _check(
        results,
        "n8-maximal/published-pair-inconsistent",
        printed_prof.m_tilde_text() != "x^4+2*x^3+2*x^2+(2*pi+1)*x+(pi^2+pi+1)",
        f"printed phi_T gives NK={printed_prof.nk}",
    )
    phi = DrinfeldModule(tower, SkewPoly(tower, [t, one, two * t + one, two, t]))
    prof = phi.profile()
    _check(results, "n8-maximal/height", phi.height == 2)
    _check(
        results,
        "n8-maximal/m-tilde",
        prof.m_tilde_text() == "x^4+2*x^3+2*x^2+(2*pi+1)*x+(pi^2+pi+1)",
        prof.m_tilde_text(),
    )
    _check(
        results,
        "n8-maximal/verdict",
        (prof.lhs, prof.rhs, prof.is_locally_maximal) == (2, 2, True),
        f"lhs={prof.lhs} rhs={prof.rhs}",
    )
    _check(
        results,
        "n8-maximal/invariants",
        prof.invariant_solutions == frozenset({(2, 1, 1, 2)}),
        str(sorted(prof.invariant_solutions)),
    )


def check_n4_ordinary(results: list) -> None:
    """q=3, p=T^2+T+2, k=F_81, phi_T = t + tau^2: ordinary, locally
    maximal despite e_K = 2; solver pins (e_K,e_F,f_F,f_K) = (2,1,1,2)."""
    tower = _tower3(4)
    p, t = _char_root(tower, [2, 1, 1])
    phi = DrinfeldModule(tower, SkewPoly(tower, [t, tower.zero, tower.one]))
    prof = phi.profile()
    _check(results, "n4-ordinary/height", phi.height == 1)
    _check(
        results,
        "n4-ordinary/m-tilde",
        prof.m_tilde_text() == "x^4+2*x^3+(pi+2)*x^2+(pi+1)*x+(pi^2+1)",
        prof.m_tilde_text(),
    )
    _check(results, "n4-ordinary/verdict", prof.is_locally_maximal)
    _check(
        results,
        "n4-ordinary/invariants",
        prof.invariant_solutions == frozenset({(2, 1, 1, 2)}),
        str(sorted(prof.invariant_solutions)),
    )


def check_n4_inconsistent(results: list) -> None:
    """q=3, p=T^2+T+2, k=F_81, phi_T = t+(t+1)tau+(t+2)tau^2+tau^3: the
    published profile (H=3, NK=2, ratio printed as 1/3) fails the degree
    relation s*n = NK*r, so the recomputed profile is recorded instead."""
    tower = _tower3(4)
    p, t = _char_root(tower, [2, 1, 1])
    one = tower.one
    phi = DrinfeldModule(
        tower, SkewPoly(tower, [t, t + one, t + tower.embed_fq(2), one])
    )
    prof = phi.profile()
    published_nk, published_r, n = 2, 3, 4
    inconsistent = (published_nk * published_r) % n != 0
    results.append(
        _entry(
            "n4-rank3/published-profile",
            "DISCREPANCY",
            f"published NK={published_nk} with r={published_r}, n={n} forces "
            f"[Ftilde:F] = {published_nk * published_r}/{n}, not an integer; "
            f"recomputed profile: H={phi.height}, m_tilde={prof.m_tilde_text()}, "
            f"NK={prof.nk}, s={prof.s}, locally_maximal={prof.is_locally_maximal}",
        )
    )
    _check(results, "n4-rank3/published-inconsistency-detected", inconsistent)
    _check(
        results,
        "n4-rank3/recomputed-profile-consistent",
        prof.s * prof.n == prof.nk * prof.r,
        f"s={prof.s} NK={prof.nk}",
    )


def check_n6_not_maximal(results: list) -> None:
    """q=3, p=T^2+T+2, k=F_729, phi_T = t+tau+(2t+1)tau^2: H=2, NK=6,
    not locally maximal despite f_F = 1; solver pins (3,2,1,2)."""
    tower = _tower3(6)
    p, t = _char_root(tower, [2, 1, 1])
    one = tower.one
    two = tower.embed_fq(2)
    phi = DrinfeldModule(tower, SkewPoly(tower, [t, one, two * t + one]))
    prof = phi.profile()
    _check(results, "n6-rank2/height", phi.height == 2)
    _check(
        results,
        "n6-rank2/m-tilde",
        prof.m_tilde_text() == "x^6+x^3+(pi^2+2)",
        prof.m_tilde_text(),
    )
    _check(
        results,
        "n6-rank2/verdict",
        (prof.lhs, prof.rhs, prof.is_locally_maximal) == (2, 3, False),
    )
    _check(
        results,
        "n6-rank2/invariants",
        prof.invariant_solutions == frozenset({(3, 2, 1, 2)}),
        str(sorted(prof.invariant_solutions)),
    )


def check_inert_supersingular_solver(results: list) -> None:
    """The supersingular rank-2 family over k with [k:F_p] = 2: the
    arithmetic constraints leave two tuples; inertness (invisible to the
    solver) selects e_F = 1, f_F = 2."""
    sols = solve_ramification_invariants(2, 1, 2, 2)
    _check(
        results,
        "inert-family/solver",
        sols == {(1, 1, 2, 2), (2, 2, 1, 1)},
        f"{sorted(sols)} (inertness selects (1,1,2,2))",
    )


def check_nonkernel_example(results: list) -> None:
    """The rank-3 module over F_16 with a non-kernel ideal: the full
    end-to-end story."""
    tower = FieldTower(2, 1, [0, 1], 4, [1, 1, 0, 0, 1])
    fq = tower.fq
    p, t = _char_root(tower, [1, 1, 0, 0, 1])
    one = tower.one
    phi = DrinfeldModule(tower, SkewPoly(tower, [t, tower.zero, t**3, one]))
    prof = phi.profile()
    _check(
        results,
        "nonkernel/minpoly",
        prof.min_poly_text() == "x^3+T*x^2+x+(T^4+T+1)",
        prof.min_poly_text(),
    )

    end = endomorphism_ring(phi)
    _check(results, "nonkernel/end-rank", end.s == 3)

    e2 = SkewPoly(tower, [one, tower.zero, tower.zero, tower.zero, one])
    e3 = SkewPoly(
        tower,
        [t**3 + t**2 + t, tower.zero, t**3 + t**2 + one, t**3 + t, t**3 + t**2, one],
    )
    c2 = coords_in_skew_basis(phi, end.skew_basis, e2)
    c3 = coords_in_skew_basis(phi, end.skew_basis, e3)
    _check(
        results,
        "nonkernel/printed-basis-membership",
        c2 is not None and c3 is not None,
        "1+tau^4 and printed e3 lie in the computed lattice",
    )

    tp1 = APoly(fq, [1, 1])
    onec = end.one_coords
    rel1 = end.mul_coords(c2, c3) == [
        (tp1**3) * onec[m] + tp1 * c3[m] for m in range(end.s)
    ]
    rel2 = end.mul_coords(c2, c2) == [tp1 * v for v in c3]
    rel3 = end.mul_coords(c3, c3) == [
        (tp1**3) * onec[m] + (tp1**2) * c2[m] + tp1 * c3[m] for m in range(end.s)
    ]
    _check(results, "nonkernel/multiplication-relations", rel1 and rel2 and rel3)

    w = SkewPoly(tower, [t**3 + t + one, t**3 + t**2, t + one, one])
    u = SkewPoly(tower, [(t**3 + t**2) ** 2, t**3 + t**2])
    v = SkewPoly(tower, [t**3 + t**2])
    _check(results, "nonkernel/bezout-identity", u * e2 + v * e3 == w)

    phi_tp1_sq = phi(tp1**2)
    expected_img = SkewPoly(
        tower,
        [t**2 + one, tower.zero, t**3, t**2 + t + one, one, t, one],
    )
    _check(results, "nonkernel/phi-(T+1)^2", phi_tp1_sq == expected_img)
    quo, rem = phi_tp1_sq.rdivmod(w)
    expected_quo = SkewPoly(tower, [t, t**2 + one, t**2 + t, one])
    _check(
        results,
        "nonkernel/right-division-by-w",
        not rem and quo == expected_quo,
        quo.text(),
    )

    gcd_w = rgcd([phi(tp1**3), e2, e3])
    _check(results, "nonkernel/rgcd-is-w", gcd_w == w, gcd_w.text())

    ideal = FracIdeal.from_generators(end, [c2, c3])
    _check(
        results,
        "nonkernel/ideal-norm",
        ideal.norm_poly() == tp1**3,
        ideal.norm_poly().text(),
    )
    _check(
        results,
        "nonkernel/ideal-cap-A",
        ideal.lattice.cols[0][0] == tp1**3,
        "I cap A = (T+1)^3 A",
    )

    result = act(phi, ideal)
    _check(results, "nonkernel/u_I", result.u.degree == 3 and result.u == w)
    _check(
        results,
        "nonkernel/isogenous-image",
        same_isogeny_class(phi, result.image),
    )
    witness_expected = [tp1**2, APoly.zero(fq), APoly.zero(fq)]
    _check(
        results,
        "nonkernel/kernel-verdict",
        not result.is_kernel and result.witness == witness_expected,
        "witness (T+1)^2",
    )
    ann = result.annihilator
    _check(
        results,
        "nonkernel/annihilator-contains-(T+1)^2",
        ann.contains(witness_expected) and not ideal.contains(witness_expected),
    )
    _check(results, "nonkernel/not-gorenstein-at-T+1", not is_gorenstein_at(end, tp1))

    comparison = end_comparison(result)
    _check(
        results,
        "nonkernel/multiplicator-containment",
        comparison["contained"],
        f"equality observed: {comparison['equal']}",
    )


def run_worked_examples() -> list[dict]:
    """Run every golden check; returns the list of result entries."""
    results: list[dict] = []
    check_supersingular_rank2(results)
    check_n6_d2_tau4(results)
    check_n8_maximal(results)
    check_n4_ordinary(results)
    check_n4_inconsistent(results)
    check_n6_not_maximal(results)
    check_inert_supersingular_solver(results)
    check_nonkernel_example(results)
    return results


def summary_lines(results: list[dict]) -> list[str]:
    lines = []
    for r in results:
        line = f"[{r['status']}] {r['name']}"
        if r["detail"]:
            line += f"  ({r['detail']})"
        lines.append(line)
    n_fail = sum(1 for r in results if r["status"] == "FAIL")
    n_disc = sum(1 for r in results if r["status"] == "DISCREPANCY")
    lines.append(
        f"-- {len(results)} checks: {len(results) - n_fail - n_disc} passed, "
        f"{n_fail} failed, {n_disc} discrepancy notices"
    )
    return lines
