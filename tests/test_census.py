import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import drinfeld.census as census
from drinfeld import (
    CensusViolation,
    DrinfeldModule,
    SkewPoly,
    TooLarge,
    act,
    census_isomorphism_classes,
    census_records,
    characteristic_roots,
    endomorphism_ring,
    enumerate_modules,
    minimal_poly_over_fq,
    same_isogeny_class,
    twist_orbit_key,
    validate_ideal_class_action,
    validate_minimal_order_occurrence,
)
from drinfeld.cli import main
from drinfeld.serialize import (
    dumps_canonical,
    endring_report,
    field_from_json,
    field_to_json,
    kelem_from_json,
    kelem_to_json,
    module_from_json,
    reduced_basis,
)

from conftest import (
    _SPECS,
    get_tower,
    integral_ideals,
    rand_kelem,
    rand_module,
    tower_above_table_limit,
    twist,
    walk_twist_orbits,
)


def test_characteristic_roots_cover_divisor_degrees():
    f4 = get_tower("f4")
    roots = characteristic_roots(f4)
    assert [p.degree for p, _ in roots] == [1, 1, 2]
    for p, t in roots:
        assert not p.eval_in_k(t)


@pytest.mark.parametrize("name", sorted(_SPECS) + ["f8192"])
def test_characteristic_roots_match_the_every_element_scan(name):
    """One minimal polynomial per Frobenius orbit keeps the roots of the
    scan that computes one per element of k: the first root of each
    prime in the order of `FieldTower.elements`."""
    tower = tower_above_table_limit() if name == "f8192" else get_tower(name)
    seen = {}
    for a in tower.elements():
        seen.setdefault(minimal_poly_over_fq(a), a)
    want = sorted(seen.items(), key=lambda kv: (kv[0].degree, kv[0].text()))
    assert characteristic_roots(tower) == want


def test_prime_field_census_q2():
    f2 = get_tower("f2")
    groups = census_isomorphism_classes(f2, 2, f2.zero)
    assert sorted(groups) == ["x^2+T", "x^2+x+T"]
    assert all(len(g.iso_classes) == 1 for g in groups.values())
    ordinary = groups["x^2+x+T"]
    assert ordinary.profile_summary["H"] == 1 and ordinary.profile_summary["ordinary"]
    supersingular = groups["x^2+T"]
    assert supersingular.profile_summary["H"] == 2


def test_partition_sizes_and_orbit_divisibility():
    f4 = get_tower("f4")
    groups = census_isomorphism_classes(f4, 2, f4.zero)
    total = sum(c.size for g in groups.values() for c in g.iso_classes)
    assert total == 4 * 3  # q^n * (q^n - 1)
    units = f4.q**f4.n - 1
    for g in groups.values():
        for c in g.iso_classes:
            assert units % c.size == 0


def test_orbit_key_is_invariant_under_twist():
    f4 = get_tower("f4")
    phi = DrinfeldModule(f4, SkewPoly(f4, [f4.zero, f4.gen(), f4.one]))
    key = twist_orbit_key(phi)
    for c in f4.elements():
        if c:
            assert twist_orbit_key(twist(phi, c)) == key


def _rand_unit(rng, tower):
    while True:
        c = rand_kelem(rng, tower)
        if c:
            return c


def _brute_orbit_key(phi, units):
    return min(tuple(x.coeffs for x in twist(phi, c).coeff_vector()) for c in units)


def test_orbit_key_matches_twisting_by_every_unit():
    # the orbit helper against the definition: twist by all of k^x
    rng = random.Random(7)
    for name, max_rank in (("f4", 3), ("f8", 2), ("f9", 2), ("f16e2", 2)):
        tower = get_tower(name)
        units = [c for c in tower.elements() if c]
        for _ in range(4):
            phi = rand_module(rng, tower, max_rank)
            assert twist_orbit_key(phi) == _brute_orbit_key(phi, units)
    # rank 3 over F_8, every zero pattern of g_1, g_2, and rank 1 where
    # k^x has more than one norm fibre
    f8 = get_tower("f8")
    units = [c for c in f8.elements() if c]
    for pattern in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for _ in range(3):
            gs = [_rand_unit(rng, f8) if nz else f8.zero for nz in pattern]
            top = _rand_unit(rng, f8)
            phi = DrinfeldModule(f8, SkewPoly(f8, [rand_kelem(rng, f8)] + gs + [top]))
            assert twist_orbit_key(phi) == _brute_orbit_key(phi, units)
    # rank 5 over F_16 with g_1 = 0: g_2 leaves the members x = 5j and
    # g_3 fixes j, which g_5 then reads
    f16 = get_tower("f16")
    units = [c for c in f16.elements() if c]
    for _ in range(12):
        gs = [f16.zero, _rand_unit(rng, f16), _rand_unit(rng, f16), rand_kelem(rng, f16)]
        phi = DrinfeldModule(f16, SkewPoly(f16, [f16.gen()] + gs + [_rand_unit(rng, f16)]))
        assert twist_orbit_key(phi) == _brute_orbit_key(phi, units)
    for name in ("f9", "f16e2"):
        tower = get_tower(name)
        units = [c for c in tower.elements() if c]
        for g in units:
            phi = DrinfeldModule(tower, SkewPoly(tower, [tower.gen(), g]))
            assert twist_orbit_key(phi) == _brute_orbit_key(phi, units)
    # the images of the ideal action, which the validator keys
    for name, rank in (("f4", 2), ("f9", 2), ("f8", 3), ("f9", 1)):
        tower = get_tower(name)
        units = [c for c in tower.elements() if c]
        acted = 0
        while acted < 12:
            phi = rand_module(rng, tower, rank)
            if phi.rank != rank or not phi.profile().end_ring_commutative:
                continue
            for ideal in itertools.islice(integral_ideals(endomorphism_ring(phi), 2), 1, 5):
                image = act(phi, ideal).image
                assert twist_orbit_key(image) == _brute_orbit_key(image, units)
                acted += 1


def test_orbit_key_above_the_table_limit():
    # F_{2^13} at rank 2, keyed through the process-wide log tables: with
    # q = 2 twisting by c sends g_1 to g_1 / c, so the key's g_1 is the
    # least unit x^12, which fixes c and g_2 -> c^(-3) g_2
    tower = tower_above_table_limit()
    rng = random.Random(11)
    least = tower.elem([0] * (tower.n - 1) + [1])
    for _ in range(3):
        g1, g2 = _rand_unit(rng, tower), _rand_unit(rng, tower)
        phi = DrinfeldModule(tower, SkewPoly(tower, [tower.gen(), g1, g2]))
        c = g1 / least
        expected = tuple(x.coeffs for x in twist(phi, c).coeff_vector())
        assert expected == (tower.gen().coeffs, least.coeffs, (c**-3 * g2).coeffs)
        assert twist_orbit_key(phi) == expected
    assert tower._tables is None


def _assert_partition_matches_the_walk(tower, rank, t):
    """The closed form's (key, size) list equals the walk's; keys are
    distinct, so the census's sort puts both in one order."""
    closed = sorted(census._twist_orbits(tower, rank, t))
    assert closed == sorted(walk_twist_orbits(tower, rank, t))
    assert len({key for key, _ in closed}) == len(closed)
    units = tower.q**tower.n - 1
    assert sum(size for _, size in closed) == tower.q ** (tower.n * (rank - 1)) * units


# the guard admits all three ranks on these towers: q^n <= 16
@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("name", ["f2", "f4", "f8", "f9", "f16e2"])
def test_closed_form_partition_matches_the_walk(name, rank):
    tower = get_tower(name)
    for _, t in characteristic_roots(tower):
        _assert_partition_matches_the_walk(tower, rank, t)


def test_closed_form_partition_past_the_rank3_nesting():
    # F_16 at rank 5, beyond the walk's reach in a test: the class count is
    # Burnside's, the keys are distinct, and every 500th orbit has the key
    # and size of twisting its key by all of k^x
    f16 = get_tower("f16")
    units = [c for c in f16.elements() if c]
    orbits = list(census._twist_orbits(f16, 5, f16.zero))
    assert len(orbits) == _burnside_class_count(f16, 5)
    assert len({key for key, _ in orbits}) == len(orbits)
    assert sum(size for _, size in orbits) == 16**4 * 15
    for key, size in orbits[::500]:
        phi = DrinfeldModule(f16, SkewPoly(f16, [f16.elem(c) for c in key]))
        twists = {tuple(x.coeffs for x in twist(phi, c).coeff_vector()) for c in units}
        assert min(twists) == key and len(twists) == size


# the defining quartics of F_16 that the benchmark's census cells draw
F16_QUARTICS = ([1, 1, 0, 0, 1], [1, 0, 0, 1, 1], [1, 1, 1, 1, 1])


@pytest.mark.parametrize("g", F16_QUARTICS)
def test_closed_form_partition_matches_the_walk_on_f16_quartics(g):
    tower = field_from_json({"p": 2, "e": 1, "h": [0, 1], "n": 4, "g": g})
    for _, t in characteristic_roots(tower):
        _assert_partition_matches_the_walk(tower, 2, t)


def test_closed_form_partition_matches_the_walk_at_f16_rank3_and_f128():
    f16 = get_tower("f16")
    for _, t in characteristic_roots(f16):
        _assert_partition_matches_the_walk(f16, 3, t)
    f128 = field_from_json({"p": 2, "e": 1, "h": [0, 1], "n": 7, "g": [1, 1, 0, 0, 0, 0, 0, 1]})
    _assert_partition_matches_the_walk(f128, 2, f128.gen())


def test_census_lists_classes_in_key_order():
    # each isogeny class lists its members in key order, and the classes
    # come in the order of their least keys: the order of the sorted walk
    for name, rank in (("f4", 2), ("f9", 2), ("f9", 1), ("f8", 3)):
        tower = get_tower(name)
        for _, t in characteristic_roots(tower)[:2]:
            groups = census_isomorphism_classes(tower, rank, t)
            entries = [(e.key, e.size) for g in groups.values() for e in g.iso_classes]
            assert sorted(entries) == sorted(walk_twist_orbits(tower, rank, t))
            for grp in groups.values():
                keys = [e.key for e in grp.iso_classes]
                assert keys == sorted(keys)
            firsts = [grp.iso_classes[0].key for grp in groups.values()]
            assert firsts == sorted(firsts)


def test_corrupted_orbit_size_is_a_census_violation(monkeypatch):
    f4 = get_tower("f4")
    real = census._twist_orbits

    def corrupted(tower, rank, t):
        orbits = list(real(tower, rank, t))
        key, size = orbits[0]
        return [(key, size + 1)] + orbits[1:]

    monkeypatch.setattr(census, "_twist_orbits", corrupted)
    with pytest.raises(CensusViolation, match="do not add up"):
        census_isomorphism_classes(f4, 2, f4.zero)


def test_census_rank_is_checked_before_any_work(monkeypatch):
    f16 = get_tower("f16")
    calls = []
    monkeypatch.setattr(census, "_twist_orbits", lambda *a: calls.append(a) or [])
    monkeypatch.setattr(census, "minimal_poly_over_fq", lambda t: calls.append(t))
    with pytest.raises(TooLarge):
        census_isomorphism_classes(f16, 99, f16.zero)
    with pytest.raises(ValueError):
        census_isomorphism_classes(f16, 0, f16.zero)
    assert calls == []


# every census the suite builds: rank 2 over F_2 to F_16, F_9 and F_27,
# rank 3 over F_3, F_8 and F_16
SUITE_CENSUSES = [
    ("f2", 2), ("f3", 2), ("f4", 2), ("f8", 2), ("f16", 2), ("f9", 2), ("f27", 2),
    ("f3", 3), ("f8", 3), ("f16", 3),
]


@pytest.mark.parametrize("name,rank", SUITE_CENSUSES)
def test_shared_profile_and_end_match_each_members_own(name, rank):
    # a sigma^d-orbit's members take their leader's profile summary and End
    # summary; each member's own, read the way the census read it for every
    # class before it shared them, must be the same
    tower = get_tower(name)
    for _, t in characteristic_roots(tower):
        for grp in census_isomorphism_classes(tower, rank, t).values():
            assert grp.iso_classes[0].leader is grp.iso_classes[0]
            for entry in grp.iso_classes:
                assert entry.leader.key <= entry.key and entry.leader in grp.iso_classes
                own = DrinfeldModule(tower, entry.rep.phi_t)
                prof = own.profile()
                assert census._profile_summary(prof) == grp.profile_summary
                prof.corollary_checks()
                if grp.profile_summary["commutative"]:
                    assert grp._end_summary(own) == grp.end(entry)


@pytest.mark.parametrize("name,profiles,classes", [("f16", 80, 108), ("f9", 117, 144)])
def test_census_builds_one_profile_per_frobenius_orbit(monkeypatch, name, profiles, classes):
    import drinfeld.invariants as invariants

    built, summarised = [], []
    real_profile = invariants.FrobeniusProfile.__init__
    real_summary = census.IsogenyClass._end_summary
    monkeypatch.setattr(
        invariants.FrobeniusProfile,
        "__init__",
        lambda self, module: built.append(module) or real_profile(self, module),
    )
    monkeypatch.setattr(
        census.IsogenyClass,
        "_end_summary",
        lambda self, rep: summarised.append(rep) or real_summary(self, rep),
    )
    tower = get_tower(name)
    leaders, commutative_leaders, count = [], [], 0
    for _, t in characteristic_roots(tower):
        groups = census_isomorphism_classes(tower, 2, t)
        count += len(census_records(tower, groups))
        for grp in groups.values():
            for entry in grp.iso_classes:
                if entry.leader is entry:
                    leaders.append(entry.rep)
                    if grp.profile_summary["commutative"]:
                        commutative_leaders.append(entry.rep)
    assert count == classes
    assert len(built) == profiles
    assert sorted(map(id, built)) == sorted(map(id, leaders))
    assert sorted(map(id, summarised)) == sorted(map(id, commutative_leaders))


def test_frobenius_image_outside_the_partition_is_a_census_violation(monkeypatch):
    f16 = get_tower("f16")
    monkeypatch.setattr(
        census, "_frobenius_image_key", lambda tab, steps, power, key: key + (key[-1],)
    )
    with pytest.raises(CensusViolation, match="not a class of the partition"):
        census_isomorphism_classes(f16, 2, f16.zero)


def test_frobenius_orbit_that_does_not_close_is_a_census_violation(monkeypatch):
    # an image map that shifts every class to the next key: from the least
    # class, n/d = 4 steps over 18 classes never come back
    f16 = get_tower("f16")
    keys = sorted(key for key, _ in census._twist_orbits(f16, 2, f16.zero))
    shift = dict(zip(keys, keys[1:] + keys[:1]))
    monkeypatch.setattr(census, "_frobenius_image_key", lambda tab, steps, power, key: shift[key])
    with pytest.raises(CensusViolation, match="does not close"):
        census_isomorphism_classes(f16, 2, f16.zero)


def _isogeny_classes_of_root(tmp_path, field, t):
    """m text -> the sorted (size, End summary) of its isomorphism
    classes, from the CLI census of the root t."""
    spec = tmp_path / "census.json"
    spec.write_text(json.dumps({"field": field, "rank": 2, "t": t}))
    out = tmp_path / "out.jsonl"
    assert main(["census", "--input", str(spec), "--out", str(out), "--skip-validate"]) == 0
    groups = {}
    for line in out.read_text().splitlines()[1:]:
        rec = json.loads(line)
        groups.setdefault(rec["m"], []).append((rec["size"], dumps_canonical(rec["end"])))
    return {m: sorted(members) for m, members in groups.items()}


@pytest.mark.parametrize("name", ("f16", "f9"))
def test_conjugate_root_has_the_same_isogeny_classes(tmp_path, name):
    # sigma maps the census of t onto that of t^q, class to class, and
    # fixes m(x) and End: a non-canonical conjugate root lists the same
    # isogeny classes with the same sizes and End summaries
    tower = get_tower(name)
    field = field_to_json(tower)
    conjugates = 0
    for prime, t in characteristic_roots(tower):
        if prime.degree == 1:
            continue
        conj = t.frobq(1)
        assert conj != t and not prime.eval_in_k(conj)
        assert _isogeny_classes_of_root(
            tmp_path, field, kelem_to_json(tower, conj)
        ) == _isogeny_classes_of_root(tmp_path, field, kelem_to_json(tower, t))
        conjugates += 1
    assert conjugates == {"f16": 4, "f9": 3}[name]


@pytest.mark.parametrize("p,n", [(2, 13), (3, 9)])
def test_rank1_partition_above_the_table_limit(p, n):
    # one class of 8,191 over F_{2^13}, two of 9,841 over F_{3^9}: the
    # norm fibres, with no discrete-log tables in the tower
    from drinfeld import FieldTower, first_irreducible
    from drinfeld.fields import _LOG_TABLE_LIMIT, _log_tables, base_field

    fq = base_field(p, 1, (0, 1))
    tower = FieldTower(p, 1, [0, 1], n, first_irreducible(fq, n).coeffs)
    assert tower.q**n > _LOG_TABLE_LIMIT and tower._tables is None
    t = tower.gen()
    groups = census_isomorphism_classes(tower, 1, t)
    classes = sorted((e.key, e.size) for g in groups.values() for e in g.iso_classes)
    units = p**n - 1
    assert len(classes) == _burnside_class_count(tower, 1) == p - 1
    assert all(size == units // (p - 1) for _, size in classes)
    # brute scan: gamma^i has norm gamma^(i (q^n - 1)/(q - 1)), so its
    # fibre is i mod (q - 1); the first element met of each fibre is its key
    log = _log_tables(tower.fq, tower.g).log
    firsts = {}
    for c in tower.elements():
        if c:
            firsts.setdefault(log[c.coeffs] % (p - 1), c.coeffs)
    assert classes == sorted(((t.coeffs, g), units // (p - 1)) for g in firsts.values())
    assert tower._tables is None


def _burnside_class_count(tower, rank):
    """(1/|k^x|) sum over c in k^x of the modules c fixes: g_i is fixed
    when g_i = 0 or c^(q^i - 1) = 1, and g_rank must be nonzero."""
    units = tower.q**tower.n - 1
    total = 0
    for c in tower.elements():
        if not c:
            continue
        fixed = 1
        for i in range(1, rank + 1):
            trivial = c ** (tower.q**i - 1) == tower.one
            fixed *= (1 if i < rank else 0) + units * trivial
        total += fixed
    assert total % units == 0
    return total // units


@pytest.mark.parametrize(
    "name,rank",
    [("f2", 2), ("f4", 2), ("f8", 2), ("f3", 2), ("f3", 3), ("f16", 2)],
)
def test_class_counts_match_burnside(name, rank):
    tower = get_tower(name)
    units = tower.q**tower.n - 1
    expected = _burnside_class_count(tower, rank)
    for _, t in characteristic_roots(tower):
        groups = census_isomorphism_classes(tower, rank, t)
        classes = [c for g in groups.values() for c in g.iso_classes]
        assert len(classes) == expected
        assert sum(c.size for c in classes) == tower.q ** (tower.n * (rank - 1)) * units


def test_burnside_hand_count_f16():
    # 270 fixed-point pairs over 15 units: 18 classes per root
    assert _burnside_class_count(get_tower("f16"), 2) == 18


# sha256 of the census JSONL, recorded before the orbit-by-orbit partition
GOLDEN_CENSUS_DIGESTS = {
    "f4-rank2-validated": (
        {"p": 2, "e": 1, "h": [0, 1], "n": 2, "g": [1, 1, 1]},
        2,
        [],
        "3d739de6bc2cce73b2ed7d2a2cfe48bbda1738d292356d8cdd884979926de67b",
    ),
    "f8-rank2": (
        {"p": 2, "e": 1, "h": [0, 1], "n": 3, "g": [1, 1, 0, 1]},
        2,
        ["--skip-validate"],
        "c02c0548f1a20bc7ff98f47cc15806fd4a07ff0f51eea3fe39da8446e5f374c2",
    ),
    "f3-rank3": (
        {"p": 3, "e": 1, "h": [0, 1], "n": 1, "g": [0, 1]},
        3,
        ["--skip-validate"],
        "6fd5d9b69dac2cbc8765f27f1bad71b317f262f3b3face10502a6ddac229300a",
    ),
    # recorded with the box search that lin_equiv ran before the norm form
    "f3-rank3-validated": (
        {"p": 3, "e": 1, "h": [0, 1], "n": 1, "g": [0, 1]},
        3,
        [],
        "98d7fe6ee6bc3bb46906f328832326d2f6a0e094fa7822880ac8b975f6e3457c",
    ),
    # recorded with KElem-by-KElem skew products, before the logarithm kernels
    "f16-rank2": (
        {"p": 2, "e": 1, "h": [0, 1], "n": 4, "g": [1, 1, 0, 0, 1]},
        2,
        ["--skip-validate"],
        "7e612846970f7fac9d4a9dba47fa47f497d623f619baddec4909391425ad2293",
    ),
    # recorded with End from the centralizer, before right divisibility
    # over A[pi]
    "f9-rank2-validated": (
        {"p": 3, "e": 1, "h": [0, 1], "n": 2, "g": [2, 1, 1]},
        2,
        [],
        "8434294b7c81d0349e8cc6b5222ef7622f48f97c1093e036a2bb8ea262900387",
    ),
    # 1,536 class records over six characteristic roots: the rank-3 End
    # orders of an unvalidated census beyond F_3; about 2 s
    "f16-rank3": (
        {"p": 2, "e": 1, "h": [0, 1], "n": 4, "g": [1, 1, 0, 0, 1]},
        3,
        ["--skip-validate"],
        "c6a7322e7d77f6fb75125963e3ecdc8fde2e33fcee5d240131adfcf2e5a877ea",
    ),
    "f27-rank2": (
        {"p": 3, "e": 1, "h": [0, 1], "n": 3, "g": [1, 2, 0, 1]},
        2,
        ["--skip-validate"],
        "a5d0404044fee6bd8c5e2fefba671dd2cc20062dee3488b6fbf7ca3676d88c16",
    ),
    # recorded before the table-row APoly kernels and the sieve of the
    # lin_equiv box search; about 10 s
    "f27-rank2-validated": (
        {"p": 3, "e": 1, "h": [0, 1], "n": 3, "g": [1, 2, 0, 1]},
        2,
        [],
        "96162886e03cfbc5691f723f75f3bb59be57acdbbfec5f70b20d48b66d8ac4ca",
    ),
}

# sha256 of the stdout of `paper-examples` and of the demos, recorded while
# indices, norms and ideal scalings in src were fractions of F = F_q(T)
GOLDEN_STDOUT_DIGESTS = {
    "paper-examples-text": (
        ["-m", "drinfeld", "paper-examples", "--format", "text"],
        "f69934f09e4bb4083ee5bf3b75038763ccaf2c49c9024f4b4de8fa69abfc2f5b",
    ),
    "paper-examples-json": (
        ["-m", "drinfeld", "paper-examples", "--format", "json"],
        "73aa8c003e7c5d36d8bca626b095ea2b629b5c6668dd7ebec26ab24ef286bead",
    ),
    "demo-01": (
        ["demos/01_frobenius_invariants.py"],
        "5af268021db54102460d351238c5800d2da499ae75dca6fd826c95732e6886a7",
    ),
    "demo-02": (
        ["demos/02_nonkernel_ideal.py"],
        "3eb4f86d38e2dea56a3630bc3be948ffc77c1873f38af800eea7b20bb577b4df",
    ),
    "demo-03": (
        ["demos/03_census_and_theorems.py"],
        "fe3d7300d9ddc09d6fe56c4bd07bde01a4c1c389155925d3d04127f93d83c9fc",
    ),
}

# sha256 of `endring` reports, recorded with KElem-by-KElem skew products:
# F_256 runs the logarithm kernels of k{tau}, F_{2^13} (above the table
# limit) the polynomial path
GOLDEN_ENDRING_DIGESTS = {
    "f256-rank3": (
        {
            "field": {"p": 2, "e": 1, "h": [0, 1], "n": 8, "g": [1, 0, 0, 0, 1, 1, 0, 1, 1]},
            "phi_T": [
                [0, 0, 0, 0, 0, 1, 1, 1],
                [1, 1, 0, 1, 1, 0, 1, 0],
                [0, 1, 1, 0, 1, 1, 0, 1],
                [1, 0, 0, 0, 0, 0, 0, 0],
            ],
        },
        "e08e68981e7e75aaf9a86381db68cc083a7da5904c19f1d0d65385eaeefab981",
    ),
    "f8192-rank2": (
        {
            "field": {
                "p": 2,
                "e": 1,
                "h": [0, 1],
                "n": 13,
                "g": [1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1],
            },
            "phi_T": [
                [0, 1] + [0] * 11,
                [0, 0, 1] + [0] * 10,
                [1] + [0] * 12,
            ],
        },
        "4f7a6f952ee8bfec7d87446e70035a51cc4c8cbf2b858050df73bf80ee580033",
    ),
    # recorded with the full-vector greedy End build, before the basis was
    # read off the free columns of one elimination; the benchmark's queries
    # leave out rank-4 and rank-5 endring. End != A[pi], basis tau-degrees
    # 0, 6, 12, 14
    "f64-rank4": (
        {
            "field": {"p": 2, "e": 1, "h": [0, 1], "n": 6, "g": [1, 0, 0, 0, 0, 1, 1]},
            "phi_T": [
                [1, 1, 1, 1, 0, 1],
                [0, 0, 0, 1, 0, 1],
                [1, 1, 1, 1, 0, 1],
                [0, 0, 1, 1, 0, 0],
                [1, 1, 1, 0, 1, 0],
            ],
        },
        "067cc75a4e0ea57f6908b40afc62c2bb0c34ff58fcaa24021e318b8654557727",
    ),
    "f64-rank5": (
        {
            "field": {"p": 2, "e": 1, "h": [0, 1], "n": 6, "g": [1, 0, 0, 0, 0, 1, 1]},
            "phi_T": [
                [0, 0, 1, 0, 0, 0],
                [0, 1, 1, 0, 0, 1],
                [0, 0, 0, 1, 1, 0],
                [1, 0, 0, 0, 1, 1],
                [1, 0, 0, 0, 1, 0],
                [0, 0, 0, 0, 1, 1],
            ],
        },
        "16a974b11dfa85235879c2535d577d2b8ee1784bf978cd26cd86275484e90c0b",
    ),
    # phi_T = (2 + 2t) tau^2: End's basis denominator is 2T, which the
    # report prints monic (T); the index over A[pi] is T
    "f9-rank2": (
        {
            "field": {"p": 3, "e": 1, "h": [0, 1], "n": 2, "g": [2, 1, 1]},
            "phi_T": [[0, 0], [0, 0], [2, 2]],
        },
        "5559e50aa5915f4ccca818b00385bd974f495fb0aaf9741633c8e27764a4f9d8",
    ),
    # r = 3 divides n = 6, End != A[pi], basis tau-degrees 0, 6, 9
    "f729-rank3": (
        {
            "field": {"p": 3, "e": 1, "h": [0, 1], "n": 6, "g": [1, 0, 0, 0, 1, 1, 1]},
            "phi_T": [
                [2, 1, 2, 1, 2, 2],
                [1, 2, 0, 0, 0, 1],
                [1, 2, 1, 1, 0, 2],
                [1, 2, 2, 1, 1, 2],
            ],
        },
        "a8621b8c45d4664e32f59439aba262b51220267513ebf18cac463c599bafc0c5",
    ),
}

# sha256 of `ideal-act` reports (module, ideal). "f256-rank3" was recorded
# with the full-vector greedy End build: the benchmark's queries act only
# over F_81. End != A[pi] (basis tau-degrees 0, 8, 10) and the generator
# (T + 1) b_0 + b_1 + T b_2 reaches T * b_2. "f16-rank3-nonkernel" is the
# non-kernel ideal (e_2, e_3) of demo 02, recorded while the annihilator
# was still solved on E / chi E: it pins the witness (T+1)^2 and the
# annihilator norm T^2+1 of the branch that re-spans a lattice
GOLDEN_IDEAL_ACT_DIGESTS = {
    "f16-rank3-nonkernel": (
        {
            "field": {"p": 2, "e": 1, "h": [0, 1], "n": 4, "g": [1, 1, 0, 0, 1]},
            "phi_T": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
        },
        {"generators": [[[1], [1], []], [[], [], [1]]]},
        "a3fe4eaa0385407f88fcfa36e567ec8c959e8068e2c520f253200f7552010376",
    ),
    "f256-rank3": (
        {
            "field": {"p": 2, "e": 1, "h": [0, 1], "n": 8, "g": [1, 0, 0, 0, 1, 1, 0, 1, 1]},
            "phi_T": [
                [0, 0, 1, 0, 0, 0, 1, 1],
                [0, 0, 0, 0, 1, 1, 1, 0],
                [1, 1, 1, 1, 0, 0, 1, 0],
                [0, 1, 1, 1, 0, 1, 0, 1],
            ],
        },
        {"generators": [[[1, 1], [1], [0, 1]]]},
        "270b6a94ab4c8206920c3ae2ba92cc2d409f37ba6319631c4c2fd4209d67d4d5",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CENSUS_DIGESTS))
def test_census_jsonl_golden_digest(tmp_path, case):
    field, rank, flags, digest = GOLDEN_CENSUS_DIGESTS[case]
    spec = tmp_path / "census.json"
    spec.write_text(json.dumps({"field": field, "rank": rank}))
    out = tmp_path / "out.jsonl"
    assert main(["census", "--input", str(spec), "--out", str(out)] + flags) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(GOLDEN_ENDRING_DIGESTS))
def test_endring_report_golden_digest(tmp_path, case):
    module, digest = GOLDEN_ENDRING_DIGESTS[case]
    spec = tmp_path / "module.json"
    spec.write_text(json.dumps(module))
    out = tmp_path / "endring.json"
    assert main(["endring", "--input", str(spec), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(GOLDEN_ENDRING_DIGESTS))
def test_endring_report_prints_monic_denominators(case):
    """`reduced_basis` scales each basis denominator to monic; End of the
    F_9 case has a non-monic basis denominator, so it enters that step."""
    phi = module_from_json(GOLDEN_ENDRING_DIGESTS[case][0])
    end = endomorphism_ring(phi)
    dens = [den for _, den in reduced_basis(end)]
    assert all(den.is_monic() for den in dens)
    assert [b["den"] for b in endring_report(phi)["basis"]] == [den.text() for den in dens]
    if case == "f9-rank2":
        assert not end.basis_matrix[1].is_monic()


@pytest.mark.parametrize("case", sorted(GOLDEN_IDEAL_ACT_DIGESTS))
def test_ideal_act_report_golden_digest(tmp_path, case):
    module, ideal, digest = GOLDEN_IDEAL_ACT_DIGESTS[case]
    spec = tmp_path / "module.json"
    spec.write_text(json.dumps(module))
    ideal_spec = tmp_path / "ideal.json"
    ideal_spec.write_text(json.dumps(ideal))
    out = tmp_path / "act.json"
    argv = ["ideal-act", "--input", str(spec), "--ideal", str(ideal_spec), "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(GOLDEN_STDOUT_DIGESTS))
def test_stdout_golden_digest(case):
    args, digest = GOLDEN_STDOUT_DIGESTS[case]
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable] + args,
        capture_output=True,
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_acted_module_stays_in_isogeny_class():
    f4 = get_tower("f4")
    phi = DrinfeldModule(f4, SkewPoly(f4, [f4.zero, f4.gen(), f4.one]))
    end = endomorphism_ring(phi)
    for ideal in integral_ideals(end, 2):
        assert same_isogeny_class(phi, act(phi, ideal).image)


def test_census_size_guard():
    f16 = get_tower("f16")
    with pytest.raises(TooLarge):
        list(enumerate_modules(f16, 99, f16.zero))
    for rank in (0, -1, 2.0, True):
        with pytest.raises(ValueError):
            list(enumerate_modules(f16, rank, f16.zero))


def test_census_records_deterministic():
    f2 = get_tower("f2")
    recs1 = census_records(f2, census_isomorphism_classes(f2, 2, f2.zero))
    recs2 = census_records(f2, census_isomorphism_classes(f2, 2, f2.zero))
    assert [dumps_canonical(r) for r in recs1] == [dumps_canonical(r) for r in recs2]
    assert all(r["record"] == "class" for r in recs1)
    assert {r["m"] for r in recs1} == {"x^2+T", "x^2+x+T"}
    supers = next(r for r in recs1 if r["m"] == "x^2+T")
    assert supers["end"]["gorenstein"] is None  # inseparable: undecided
    ordinary = next(r for r in recs1 if r["m"] == "x^2+x+T")
    assert ordinary["end"]["gorenstein"] is True
    assert ordinary["end"]["is_minimal"]


def test_minimal_order_occurrence_negative_case():
    # the intermediate class over F_4 (H=2, d=1 < n): minimal order never occurs
    f4 = get_tower("f4")
    groups = census_isomorphism_classes(f4, 2, f4.zero)
    grp = groups["x^2+T*x+T^2"]
    report = validate_minimal_order_occurrence(grp)
    assert report["occurs"] is False and report["expected"] is False


def test_ideal_class_action_bijective_on_f4_ordinary():
    f4 = get_tower("f4")
    groups = census_isomorphism_classes(f4, 2, f4.zero)
    grp = groups["x^2+(T+1)*x+T^2"]
    report = validate_ideal_class_action(grp)
    assert report["bijective"] and report["saturated"]
    assert report["ideal_classes"] == report["iso_classes"] == 2


def test_ideal_class_action_validates_past_radius_two():
    # k = F_81 over F_9 at rank 2: q^(s * 3) = 9^6 exceeds the lin_equiv
    # size guard, so the validator runs at the derived radius 1; the
    # pairs that radius leaves unknown are settled by their images and
    # the report says so
    tower = field_from_json({"p": 3, "e": 2, "h": [2, 1, 1], "n": 2, "g": [[0, 1], [0, 0], [1, 0]]})
    groups = census_isomorphism_classes(tower, 2, kelem_from_json(tower, [[0, 1], [0, 0]]))
    m = "x^2+((2*y+1))*x+((2*y+2)*T^2+2*T+2*y)"
    assert groups[m].profile_summary["ordinary"]
    assert validate_ideal_class_action(groups[m]) == {
        "m": m,
        "ideal_classes": 2,
        "iso_classes": 2,
        "bijective": True,
        "saturated": True,
        "degraded": True,
        "action_resolved_pairs": 10,
        "max_norm_deg": 2,
    }


def _commutative_groups(name, rank):
    tower = get_tower(name)
    for _, t in characteristic_roots(tower):
        for grp in census_isomorphism_classes(tower, rank, t).values():
            if grp.profile_summary["commutative"]:
                yield tower, grp


def test_minimal_order_is_the_identity_pi_lattice():
    # A[pi] has the power basis, so the index over it is read against the
    # identity lattice instead of a built order
    from drinfeld import ALattice, minimal_frobenius_order

    count = 0
    for tower, grp in _commutative_groups("f9", 2):
        for entry in grp.iso_classes:
            rep = entry.rep
            minimal = minimal_frobenius_order(rep.profile(), rep)
            assert minimal.pi_lattice == ALattice.identity(tower.fq, minimal.s)
            count += 1
    assert count == 138


def test_class_representatives_take_the_root_prime(monkeypatch):
    import drinfeld.modules as modules
    from drinfeld import minimal_poly_over_fq

    f9 = get_tower("f9")
    calls = []
    monkeypatch.setattr(
        modules, "minimal_poly_over_fq", lambda t: calls.append(t) or minimal_poly_over_fq(t)
    )
    for _, t in characteristic_roots(f9)[:2] + characteristic_roots(f9)[-1:]:
        groups = census_isomorphism_classes(f9, 2, t)
        for grp in groups.values():
            for entry in grp.iso_classes:
                assert entry.rep.char_prime == minimal_poly_over_fq(entry.rep.t)
    assert calls == []


def test_census_builds_each_multiplication_table_once_per_order(monkeypatch):
    # members with equal End rings share one order: it is built and its
    # table made once, and the other members build no order at all; the
    # summarised orders all have their tables, the inseparable one of F_4
    # (taken from the centralizer) included
    import drinfeld.census as census

    built = []
    real = census.order_from_pi_lattice
    monkeypatch.setattr(
        census, "order_from_pi_lattice", lambda *a, **k: built.append(real(*a, **k)) or built[-1]
    )
    hits = summarised = inseparable = 0
    for _, grp in _commutative_groups("f4", 2):
        for entry in grp.iso_classes:
            grp.end(entry)
        hits += len(grp.iso_classes) - len(grp.end_orders)
        for order, _ in grp.end_orders.values():
            summarised += 1
            assert "table" in vars(order) and "one_coords" in vars(order)
            inseparable += not order.ext.is_separable()
    assert len(built) == summarised - inseparable
    assert all("table" in vars(order) for order in built)
    assert hits > 0 and summarised > 0 and inseparable == 1


def test_validator_enumerates_each_norm_level_once(monkeypatch):
    import drinfeld.census as census

    f4 = get_tower("f4")
    groups = census_isomorphism_classes(f4, 2, f4.zero)
    grp = groups["x^2+(T+1)*x+T^2"]
    levels = []
    real = census.ideals_of_norm_degree

    def spy(order, level):
        levels.append(level)
        return real(order, level)

    monkeypatch.setattr(census, "ideals_of_norm_degree", spy)
    report = validate_ideal_class_action(grp)
    assert levels == list(range(report["max_norm_deg"] + 1))
