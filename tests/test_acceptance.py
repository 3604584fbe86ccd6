"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s or look at the
captured output). Tolerances are exact equality throughout; runtime
budgets are asserted where the criteria state them.
"""

import random
import time

from drinfeld import (
    ALattice,
    RankError,
    SkewPoly,
    act,
    census_isomorphism_classes,
    characteristic_roots,
    end_comparison,
    endomorphism_ring,
    enumerate_modules,
    find_isomorphism,
    gorenstein_conductor,
    lattice_index,
    rgcd_bezout,
    validate_ideal_class_action,
    validate_minimal_order_occurrence,
)
from drinfeld.errors import InseparableExtension
from drinfeld.worked_examples import run_worked_examples

from conftest import (
    CENSUS_SPECS,
    get_tower,
    integral_ideals,
    rand_apoly,
    rand_module,
    rand_nonzero_apoly,
    rand_nonzero_skew,
    rand_skew,
)

SEED = 20250808


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_1_rank3_example_end_to_end():
    start = time.monotonic()
    results = [r for r in run_worked_examples() if r["name"].startswith("nonkernel/")]
    elapsed = time.monotonic() - start
    names = {r["name"] for r in results}
    required = {
        "nonkernel/minpoly",
        "nonkernel/end-rank",
        "nonkernel/printed-basis-membership",
        "nonkernel/multiplication-relations",
        "nonkernel/bezout-identity",
        "nonkernel/right-division-by-w",
        "nonkernel/kernel-verdict",
        "nonkernel/not-gorenstein-at-T+1",
    }
    ok = required <= names and all(r["status"] == "PASS" for r in results)
    ok = ok and elapsed < 10.0
    _report(1, "rank-3 worked example end to end", ok, f"{elapsed:.1f}s, {len(results)} checks")


def test_criterion_2_golden_invariants():
    start = time.monotonic()
    entries = run_worked_examples()
    by_name = {r["name"]: r for r in entries}
    needed = [
        "supersingular-rank2/q=2/minpoly",
        "supersingular-rank2/q=2/height",
        "supersingular-rank2/q=2/verdict",
        "n8-maximal/height",
        "n8-maximal/m-tilde",
        "n8-maximal/verdict",
        "n6-d2-tau4/m-tilde",
        "n6-d2-tau4/verdict",
        "n4-ordinary/height",
        "n4-ordinary/m-tilde",
        "n4-ordinary/verdict",
        "n4-ordinary/invariants",
        "n6-rank2/m-tilde",
        "n6-rank2/verdict",
        "n6-rank2/invariants",
    ]
    ok = all(name in by_name and by_name[name]["status"] == "PASS" for name in needed)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(2, "published golden invariants", ok, f"{elapsed:.1f}s")


def test_criterion_3_discrepancy_handling():
    entries = run_worked_examples()
    by_name = {r["name"]: r for r in entries}
    tau_exponent = by_name.get("n6-d2-tau4/phi_p-published-exponent")
    inconsistent = by_name.get("n4-rank3/published-profile")
    recomputed = by_name.get("n6-d2-tau4/phi_p-recomputed")
    consistent = by_name.get("n4-rank3/recomputed-profile-consistent")
    ok = (
        tau_exponent is not None
        and tau_exponent["status"] == "DISCREPANCY"
        and inconsistent is not None
        and inconsistent["status"] == "DISCREPANCY"
        and recomputed is not None
        and recomputed["status"] == "PASS"
        and consistent is not None
        and consistent["status"] == "PASS"
        and not any(r["status"] == "FAIL" for r in entries)
    )
    _report(3, "discrepancies emit DISCREPANCY, not FAIL", ok)


def test_worked_examples_status_counts():
    # the full tally of the golden runner, as `paper-examples` prints it
    statuses = [r["status"] for r in run_worked_examples()]
    counts = {k: statuses.count(k) for k in ("PASS", "DISCREPANCY", "FAIL")}
    assert counts == {"PASS": 47, "DISCREPANCY": 3, "FAIL": 0}
    assert len(statuses) == 50


def test_criterion_4_property_suites():
    rng = random.Random(SEED)
    towers = [get_tower(n) for n in ("f4", "f9", "f16", "f16e2")]

    cases = 0
    for i in range(1000):
        tower = towers[i % len(towers)]
        f = rand_skew(rng, tower, 6)
        g = rand_nonzero_skew(rng, tower, 4)
        quo, rem = f.rdivmod(g)
        assert quo * g + rem == f and rem.degree < g.degree
        if f:
            assert (f * g).degree == f.degree + g.degree
        cases += 1
    assert cases >= 1000

    cases = 0
    for i in range(1000):
        tower = towers[i % len(towers)]
        f = rand_skew(rng, tower, 5)
        g = rand_skew(rng, tower, 5)
        if not f and not g:
            f = SkewPoly.one(tower)
        d, a, b = rgcd_bezout(f, g)
        assert a * f + b * g == d
        if f:
            assert not f.rdivmod(d)[1]
        if g:
            assert not g.rdivmod(d)[1]
        cases += 1
    assert cases >= 1000

    profile_towers = (
        [("f2", 3), ("f3", 3), ("f4", 3), ("f9", 2), ("f8", 2), ("f16", 2), ("f16e2", 2)]
    )
    cases = 0
    for i in range(1000):
        name, max_rank = profile_towers[i % len(profile_towers)]
        tower = get_tower(name)
        phi = rand_module(rng, tower, max_rank=max_rank)
        prof = phi.profile()
        acc = SkewPoly.zero(tower)
        for j, c in enumerate(prof.min_poly):
            acc = acc + phi(c) * SkewPoly.tau_power(tower, tower.n * j)
        assert not acc, "m(pi) must vanish"
        power = prof.nk // phi.d
        assert prof.min_poly[0].monic() == (phi.char_prime**power).monic()
        assert prof.lhs <= prof.rhs
        cases += 1
    assert cases >= 1000

    cases = 0
    fq_pool = [get_tower("f2").fq, get_tower("f3").fq]
    for i in range(1000):
        fq = fq_pool[i % 2]
        dim = 2 + (i % 2)
        gens = [[rand_apoly(rng, fq, 2) for _ in range(dim)] for _ in range(dim + 1)]
        try:
            lat = ALattice.from_generators(fq, dim, gens)
        except RankError:
            continue
        assert ALattice.from_generators(fq, dim, [list(c) for c in lat.cols], lat.den) == lat
        a = rand_nonzero_apoly(rng, fq, 2).monic()
        b = rand_nonzero_apoly(rng, fq, 2).monic()
        mid = lat.scale(a)
        small = mid.scale(b)
        assert lattice_index(lat, small) == lattice_index(lat, mid) * lattice_index(mid, small)
        cases += 1
    assert cases >= 900  # rank-deficient draws are skipped
    _report(4, "randomized property suites (fixed seed)", True, "4 suites x >=1000 cases")


def _census_corpus():
    for name, rank in CENSUS_SPECS:
        tower = get_tower(name)
        for _, t in characteristic_roots(tower):
            yield tower, rank, t


def test_criterion_5_kernel_and_gorenstein_properties():
    start = time.monotonic()
    rng = random.Random(SEED + 5)
    checked_ideals = 0
    checked_reps = 0
    for tower, rank, t in _census_corpus():
        groups = census_isomorphism_classes(tower, rank, t)
        for grp in groups.values():
            if not grp.profile_summary["commutative"]:
                continue
            for entry in grp.iso_classes:
                phi = entry.rep
                end = endomorphism_ring(phi)
                try:
                    gorenstein = gorenstein_conductor(end).degree == 0
                except InseparableExtension:
                    gorenstein = None
                checked_reps += 1
                base_image = None
                for ideal in integral_ideals(end, 2):
                    result = act(phi, ideal)
                    if gorenstein is True:
                        assert result.is_kernel, "Gorenstein ring with non-kernel ideal"
                    report = end_comparison(result)
                    assert report["contained"]
                    if result.is_kernel:
                        assert report["equal"]
                    checked_ideals += 1
                    if base_image is None and ideal.norm_poly().degree > 0:
                        # principal rescaling preserves the image class
                        coords = [rand_apoly(rng, end.fq, 1) for _ in range(end.s)]
                        if any(coords):
                            rescaled = ideal.mul_elem(coords)
                            img1 = act(phi, rescaled).image
                            assert find_isomorphism(result.image, img1) is not None
                            base_image = result.image
    elapsed = time.monotonic() - start
    ok = checked_ideals > 0 and elapsed < 600.0
    _report(
        5,
        "kernel/Gorenstein properties on the census corpus",
        ok,
        f"{checked_reps} end rings, {checked_ideals} ideals, {elapsed:.0f}s",
    )


def test_criterion_6_minimal_order_occurrence():
    violations = 0
    groups_checked = 0
    members_checked = 0
    for tower, rank, t in _census_corpus():
        # per-member corollary cross-check
        for module in enumerate_modules(tower, rank, t):
            prof = module.profile()
            if prof.end_ring_commutative:
                expected = prof.height == 1 or prof.d == prof.n
                if prof.is_locally_maximal != expected:
                    violations += 1
            members_checked += 1
        groups = census_isomorphism_classes(tower, rank, t)
        for grp in groups.values():
            report = validate_minimal_order_occurrence(grp)
            if "skipped" not in report:
                groups_checked += 1
    _report(
        6,
        "minimal order occurs iff ordinary or prime field",
        violations == 0 and groups_checked > 0,
        f"{groups_checked} isogeny classes, {members_checked} members",
    )


def test_criterion_7_ideal_class_action_bijection():
    start = time.monotonic()
    validated = 0
    for tower, rank, t in _census_corpus():
        groups = census_isomorphism_classes(tower, rank, t)
        for grp in groups.values():
            report = validate_ideal_class_action(grp)
            if "skipped" in report:
                continue
            assert report["bijective"], report
            assert report["saturated"], report
            assert report["ideal_classes"] == report["iso_classes"]
            validated += 1
    elapsed = time.monotonic() - start
    ok = validated > 0 and elapsed < 1800.0
    _report(
        7,
        "ideal classes act freely and transitively",
        ok,
        f"{validated} isogeny classes, {elapsed:.0f}s",
    )
