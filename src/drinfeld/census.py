"""Exhaustive desk-scale censuses of Drinfeld modules.

A census fixes the tower, a rank and one root t per characteristic
prime, and enumerates every phi_T = t + g_1 tau + ... + g_r tau^r with
g_r != 0. The isomorphism classes are the orbits of k^x acting by
twisting, c phi c^{-1}: g_i -> c^(1-q^i) g_i (Gekeler 1991). The
partition lists them in closed form, with no walk over the candidates:
on discrete logarithms, N = q^n - 1 and e_i = log g_i, twisting by
gamma^x adds x * (1 - q^i) to e_i mod N, so for each zero pattern of
g_1 ... g_(r-1) nested ranges of gcds give one representative per orbit
and the orbit's size, and its key (the orbit's lexicographic minimum,
which names the class's representative) is read off the exp table one
coordinate at a time. F_q^x, which acts trivially, drops out by itself.
At rank 1 the orbits are the fibres of the norm k^x -> F_q^x (Hilbert
90), keyed by a scan of k in lexicographic order, so no tables are
needed at any size. The sizes must add up to the q^(n(r-1)) (q^n - 1)
candidates. The classes are then grouped into isogeny classes by the
minimal polynomial of the Frobenius.

One pass serves the whole census: the partition is built once per root,
and its groups feed both the class records and the validators. The
endomorphism-ring summaries come from the isogeny class
(`IsogenyClass.end`). Every End lies between A[pi] and the maximal
order, so each member's End is read off A[pi] by right divisibility
(`orders.end_pi_lattice`): with f = prod g_i^(i//2) for the squarefree
decomposition disc(A[pi]) = prod g_i^i, computed once per isogeny class,
End = f^-1 {w in A[pi] : phi_f right-divides w}. An inseparable m(x),
whose discriminant is 0, falls back to the centralizer
(`orders.endomorphism_ring`), and so does the validator's base module,
whose ideals act through the centralizer's skew basis. The index over
A[pi], whose pi-lattice is the identity, and the Gorenstein conductor
are computed once per distinct End order, not once per isomorphism
class. On top of the partition the census validates the two
classification statements:

* the minimal order occurs as an endomorphism ring in a commutative
  isogeny class exactly when the class is ordinary or the ground field
  is the prime field;
* in those classes the linear-equivalence classes of integral ideals
  of the minimal order act freely and transitively on the isomorphism
  classes.
"""

from __future__ import annotations

import hashlib
import itertools
from functools import cached_property
from math import gcd

from .action import act
from .apoly import APoly, minimal_poly_over_fq
from .errors import CensusViolation, InseparableExtension, TooLarge
from .fields import FieldTower, KElem, _log_tables
from .lattices import ALattice, lattice_index
from .modules import DrinfeldModule
from .orders import (
    AOrder,
    FracIdeal,
    end_index_bound,
    end_pi_lattice,
    endomorphism_ring,
    gorenstein_conductor,
    ideals_of_norm_degree,
    lin_equiv,
    order_from_pi_lattice,
)
from .skew import SkewPoly

CANDIDATE_GUARD = 10**7
# the validator enumerates ideals up to this norm degree before it reports
# a transitivity failure; the validated censuses of F_4, F_9, F_25 and F_27
# at rank 2 and of F_3 at rank 3 saturate by norm degree 2, and that of
# F_8 at rank 3 by norm degree 4
MAX_NORM_DEG = 6


def characteristic_roots(tower: FieldTower) -> list[tuple[APoly, KElem]]:
    """One canonical root per characteristic prime available in k, the
    first of its roots in the order of `FieldTower.elements`, sorted by
    (degree, prime text). The roots of a prime are one Frobenius orbit,
    so each minimal polynomial is computed once per orbit: the conjugates
    a^(q^j) of an element already taken are skipped."""
    seen: dict[APoly, KElem] = {}
    covered: set[tuple] = set()
    for a in tower.elements():
        if a.coeffs in covered:
            continue
        p = minimal_poly_over_fq(a)
        seen[p] = a
        for _ in range(p.degree - 1):
            a = a.frobq(1)
            covered.add(a.coeffs)
    return sorted(seen.items(), key=lambda kv: (kv[0].degree, kv[0].text()))


def check_census_rank(tower: FieldTower, rank) -> None:
    """Reject a rank that is not a positive integer (ValueError) or whose
    q^(n*rank) candidates exceed the census guard (TooLarge)."""
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise ValueError(f"census rank must be a positive integer, got {rank!r}")
    total = tower.q ** (tower.n * rank)
    if total > CANDIDATE_GUARD:
        raise TooLarge(f"{total} candidate modules exceed the census guard")


def _candidate_vectors(tower: FieldTower, rank: int, t: KElem):
    """Every coefficient vector (t, g_1, ..., g_rank) with g_rank != 0."""
    check_census_rank(tower, rank)
    singles = list(tower.elements())
    tops = [c for c in singles if c]
    for mid in itertools.product(singles, repeat=rank - 1):
        for top in tops:
            yield (t,) + mid + (top,)


def enumerate_modules(tower: FieldTower, rank: int, t: KElem):
    """All phi_T with constant coefficient t and exact tau-degree rank."""
    for coeffs in _candidate_vectors(tower, rank, t):
        yield DrinfeldModule(tower, SkewPoly(tower, coeffs))


def _k_log_tables(tower: FieldTower):
    """The discrete-log tables of k: the tower's own, or, above
    `fields._LOG_TABLE_LIMIT`, the process-wide cached ones. The census
    guard keeps q^n <= 3162 at rank >= 2, so only the Python API reaches
    the second case."""
    tab = tower._tables
    return _log_tables(tower.fq, tower.g) if tab is None else tab


def _twist_steps(tower: FieldTower, rank: int, order: int) -> list[int]:
    """step_i = (1 - q^i) mod N: twisting by gamma^x adds x * step_i to
    log g_i."""
    return [(1 - tower.q**i) % order for i in range(1, rank + 1)]


def _orbit_key(tab, steps: list[int], t: tuple, logs: list) -> tuple[tuple, int]:
    """(key, size) of the twist orbit through g_i = exp[logs[i]] (None
    for g_i = 0): its lexicographically least coefficient vector, t first,
    and its number of members.

    Member x has g_i = exp[(logs[i] + x * step_i) mod N]. The least vector
    is read coordinate by coordinate: after the coordinates before g_i the
    members left are x0 + m*j, and g_i takes period = N / gcd(m * step_i, N)
    distinct values over them, each once in j < period; the least fixes
    j, and m grows to m * period. The final m is the orbit's size."""
    exp, order = tab.exp, tab.order
    zero = (0,) * len(t)
    key = [t]
    x0, m = 0, 1
    for e, step in zip(logs, steps):
        if e is None:
            key.append(zero)
            continue
        e = (e + x0 * step) % order
        s = m * step % order
        period = order // gcd(s, order)
        vals = [exp[(e + j * s) % order] for j in range(period)]
        least = min(vals)
        key.append(least)
        x0 += m * vals.index(least)
        m *= period
    return tuple(key), m


def _norm(c: KElem) -> int:
    """N_{k/F_q}(c) = c^((q^n - 1)/(q - 1)), an element of F_q."""
    tower = c.tower
    return (c ** ((tower.q**tower.n - 1) // (tower.q - 1))).coeffs[0]


def _norm_fibre_keys(tower: FieldTower) -> dict[int, tuple]:
    """The lexicographically first element of each fibre of the norm
    k^x -> F_q^x, keyed by the norm: the rank-1 twist orbits, since by
    Hilbert 90 the image of c -> c^(1-q) is the kernel of the norm. The
    scan stops once all q - 1 norms are seen, and needs no tables."""
    firsts: dict[int, tuple] = {}
    for c in tower.elements():
        if c:
            firsts.setdefault(_norm(c), c.coeffs)
            if len(firsts) == tower.q - 1:
                break
    return firsts


def _twist_orbits(tower: FieldTower, rank: int, t: KElem):
    """(key, size) of every twist orbit of the census modules with
    constant term t, by `_orbit_key` from one representative per orbit
    (rank 1: one per norm fibre).

    Per zero pattern of g_1 ... g_(rank-1) (g_rank != 0), the nonzero
    coordinates are taken in order with m = 1: log g_i ranges over
    [0, gcd(m * step_i, N)), the representatives of the members x0 + m*j
    that fix the coordinates before it, and then m grows to
    lcm(m, N / gcd(step_i, N))."""
    if rank == 1:
        size = (tower.q**tower.n - 1) // (tower.q - 1)
        for g in _norm_fibre_keys(tower).values():
            yield (t.coeffs, g), size
        return
    tab = _k_log_tables(tower)
    order = tab.order
    steps = _twist_steps(tower, rank, order)
    for pattern in itertools.product((False, True), repeat=rank - 1):
        nonzero = [i for i, p in enumerate(pattern) if p] + [rank - 1]
        ranges, m = [], 1
        for i in nonzero:
            g = gcd(m * steps[i], order)
            ranges.append(range(g))
            m *= order // g
        logs = [None] * rank
        for reps in itertools.product(*ranges):
            for i, e in zip(nonzero, reps):
                logs[i] = e
            yield _orbit_key(tab, steps, t.coeffs, logs)


def twist_orbit_key(module: DrinfeldModule) -> tuple:
    """Lexicographically least coefficient vector in the twist orbit, by
    the routine the census partition reads its keys with. At rank >= 2
    it takes k's discrete-log tables, cached for the process above
    `fields._LOG_TABLE_LIMIT`."""
    tower = module.tower
    t, *gs = module.coeff_vector()
    if len(gs) == 1:
        return (t.coeffs, _norm_fibre_keys(tower)[_norm(gs[0])])
    tab = _k_log_tables(tower)
    logs = [tab.log.get(g.coeffs) for g in gs]
    return _orbit_key(tab, _twist_steps(tower, len(gs), tab.order), t.coeffs, logs)[0]


class IsoClass:
    __slots__ = ("key", "rep", "size", "leader", "end_summary")

    def __init__(self, key: tuple, rep: DrinfeldModule, size: int = 0):
        self.key = key
        self.rep = rep
        self.size = size
        # the least class of this class's sigma^d-orbit (`_frobenius_orbits`),
        # whose profile and End summary it shares
        self.leader = self
        # the summary of rep's End order, once `IsogenyClass.end` has read it
        self.end_summary: dict | None = None


class IsogenyClass:
    def __init__(self, m_text: str, profile_summary: dict):
        self.m_text = m_text
        self.profile_summary = profile_summary
        self.iso_classes: list[IsoClass] = []
        # pi-lattice of an End order -> the order and its summary; members
        # with equal End rings share one
        self.end_orders: dict[ALattice, tuple[AOrder, dict]] = {}

    @cached_property
    def index_bound(self) -> APoly | None:
        """f with f End(phi) <= A[pi] for every member (`end_index_bound`):
        it depends on m(x) alone. None when m(x) is inseparable."""
        return end_index_bound(self.iso_classes[0].rep.profile().extension_field())

    def end(self, entry: IsoClass) -> dict:
        """Endomorphism-ring record of a member's representative, read
        once per sigma^d-orbit, for its leader: sigma^d maps End(leader)
        onto End(member) and fixes pi, so the two have one pi-lattice."""
        if not self.profile_summary["commutative"]:
            return {"commutative": False}
        if entry.end_summary is None:
            lead = entry.leader
            if lead.end_summary is None:
                lead.end_summary = self._end_summary(lead.rep)
            entry.end_summary = lead.end_summary
        return entry.end_summary

    def _end_summary(self, rep: DrinfeldModule) -> dict:
        """The summary of End(rep), taken by right divisibility over A[pi]
        (`end_pi_lattice`), or from the centralizer when m(x) is
        inseparable; each distinct order is built and summarised once."""
        f = self.index_bound
        if f is None:
            order = endomorphism_ring(rep)
            lat = order.pi_lattice
        else:
            order, lat = None, end_pi_lattice(rep, f)
        known = self.end_orders.get(lat)
        if known is None:
            if order is None:
                ext = rep.profile().extension_field()
                order = order_from_pi_lattice(ext, lat, module=rep, tag="End")
            known = self.end_orders[lat] = (order, end_order_summary(order))
        return known[1]


def _frobenius_image_key(tab, steps: list[int], power: int, key: tuple) -> tuple:
    """The key of the twist orbit of sigma^d(phi), for the class keyed by
    `key`: sigma^d maps g_i = exp[e_i] to exp[e_i * power], with power =
    q^d mod N, and fixes t (key[0]), which lies in F_(q^d)."""
    logs = [None if not any(g) else tab.log[g] * power % tab.order for g in key[1:]]
    return _orbit_key(tab, steps, key[0], logs)[0]


def _frobenius_orbits(tower: FieldTower, rank: int, d: int, classes: list[IsoClass]) -> None:
    """Set each class's `leader` to the least class of its orbit under
    sigma^d, the q^d-power map of k, which fixes the root t of degree d
    and maps the census of t onto itself, one twist orbit onto another.
    `classes` are in key order. Raises CensusViolation when an image key
    is not a key of the partition, or an orbit does not close within
    n/d steps (sigma^n is the identity).

    At rank 1 every class is its own orbit: sigma fixes each norm fibre.
    So it is when d = n, where sigma^d is the identity."""
    if rank == 1 or d == tower.n:
        return
    tab = _k_log_tables(tower)
    steps = _twist_steps(tower, rank, tab.order)
    power = tower.q**d % tab.order
    by_key = {entry.key: entry for entry in classes}
    for entry in classes:
        if entry.leader is not entry:
            continue
        member = entry
        for _ in range(tower.n // d):
            member = by_key.get(_frobenius_image_key(tab, steps, power, member.key))
            if member is None:
                raise CensusViolation("a Frobenius image is not a class of the partition")
            if member is entry:
                break
            member.leader = entry
        else:
            raise CensusViolation("a Frobenius orbit does not close")


def _profile_summary(prof) -> dict:
    """The isogeny-class fields of a Frobenius profile, as each class
    record carries them."""
    return {
        "m": prof.min_poly_text(),
        "m_tilde": prof.m_tilde_text(),
        "s": prof.s,
        "NK": prof.nk,
        "H": prof.height,
        "d": prof.d,
        "n": prof.n,
        "r": prof.r,
        "ordinary": prof.is_ordinary,
        "locally_maximal": prof.is_locally_maximal,
        "commutative": prof.end_ring_commutative,
    }


def census_isomorphism_classes(
    tower: FieldTower, rank: int, t: KElem
) -> dict[str, IsogenyClass]:
    """Partition all census modules into isomorphism classes grouped by
    isogeny class, one twist orbit per class (`_twist_orbits`): nothing
    walks the q^(n*rank) candidates. Raises CensusViolation when the
    orbit sizes do not add up to them, or when sigma^d does not permute
    the classes.

    The Frobenius profile is built once per sigma^d-orbit of classes
    (`_frobenius_orbits`), for its leader: m(x), the height and the
    verdicts are invariant under sigma^d, which fixes A and pi. Every
    member keeps its own key, representative and size."""
    check_census_rank(tower, rank)
    # every candidate has constant term t, so one characteristic prime
    char_prime = minimal_poly_over_fq(t)
    classes: list[IsoClass] = []
    for key, size in _twist_orbits(tower, rank, t):
        phi_t = SkewPoly(tower, [tower.elem(c) for c in key])
        rep = DrinfeldModule.with_char_prime(tower, phi_t, char_prime)
        classes.append(IsoClass(key, rep, size))
    units = tower.q**tower.n - 1
    if sum(c.size for c in classes) != tower.q ** (tower.n * (rank - 1)) * units:
        raise CensusViolation("partition sizes do not add up")
    classes.sort(key=lambda e: e.key)
    _frobenius_orbits(tower, rank, char_prime.degree, classes)
    out: dict[str, IsogenyClass] = {}
    # leader key -> its isogeny class; a leader precedes its orbit
    group_of: dict[tuple, IsogenyClass] = {}
    for entry in classes:
        grp = group_of.get(entry.leader.key)
        if grp is not None:
            grp.iso_classes.append(entry)
            continue
        prof = entry.rep.profile()
        mtext = prof.min_poly_text()
        grp = out.get(mtext)
        if grp is None:
            grp = out[mtext] = IsogenyClass(mtext, _profile_summary(prof))
        else:
            for key_, val in (
                ("H", prof.height),
                ("s", prof.s),
                ("NK", prof.nk),
                ("locally_maximal", prof.is_locally_maximal),
            ):
                if grp.profile_summary[key_] != val:
                    raise CensusViolation(
                        f"isogeny class {mtext}: member disagrees on {key_}"
                    )
        prof.corollary_checks()
        group_of[entry.key] = grp
        grp.iso_classes.append(entry)
    return out


def end_order_summary(end: AOrder) -> dict:
    """Endomorphism-ring record of a commutative End order over the
    minimal order A[pi] of its isogeny class, whose pi-lattice is the
    identity: A[pi] has the power basis."""
    # the census takes End as a pi-lattice (right divisibility over A[pi]),
    # and building the multiplication table and the coordinates of 1 is
    # the only check that this lattice is a ring containing 1: each raises
    # InternalError otherwise. So they are built here, once per distinct
    # order, although the conductor never reads them for a monogenic order
    # (every rank-2 order) or an inseparable Frobenius field
    _ = end.table, end.one_coords
    index = lattice_index(end.pi_lattice, ALattice.identity(end.fq, end.s))
    out = {
        "commutative": True,
        "rank": end.s,
        "index_over_minimal": index.text(),
        "is_minimal": index.degree == 0,
    }
    try:
        cond = gorenstein_conductor(end)
        out["gorenstein"] = cond.degree == 0
        out["gorenstein_conductor"] = cond.text()
    except InseparableExtension:
        out["gorenstein"] = None
        out["gorenstein_conductor"] = None
    return out


def validate_minimal_order_occurrence(group: IsogenyClass) -> dict:
    """In a commutative isogeny class, the minimal order occurs as an
    endomorphism ring exactly when the class is ordinary or over the
    prime field. Raises CensusViolation on failure."""
    summary = group.profile_summary
    if not summary["commutative"]:
        return {"m": group.m_text, "skipped": "noncommutative endomorphism ring"}
    occurs = False
    indices = []
    for entry in group.iso_classes:
        end = group.end(entry)
        indices.append(end["index_over_minimal"])
        if end["is_minimal"]:
            occurs = True
    expected = summary["ordinary"] or summary["d"] == summary["n"]
    if occurs != expected:
        raise CensusViolation(
            f"isogeny class {group.m_text}: minimal order occurrence {occurs} "
            f"but ordinary/prime-field is {expected}"
        )
    if expected != summary["locally_maximal"]:
        raise CensusViolation(
            f"isogeny class {group.m_text}: verdict disagrees with expectation"
        )
    return {
        "m": group.m_text,
        "occurs": occurs,
        "expected": expected,
        "indices": indices,
        "iso_classes": len(group.iso_classes),
    }


def validate_ideal_class_action(group: IsogenyClass) -> dict:
    """Free and transitive action of ideal classes of the minimal order
    on the isomorphism classes of an ordinary or prime-field class.

    Ideals are enumerated by norm degree until every isomorphism class
    is hit and one further level adds no new ideal class (saturation),
    or the ceiling MAX_NORM_DEG trips. Linear equivalence runs at the
    radius `lin_equiv` derives from its size guard. Raises
    CensusViolation on a freeness or transitivity failure;
    linear-equivalence Unknowns degrade the report instead."""
    summary = group.profile_summary
    if not summary["commutative"]:
        return {"m": group.m_text, "skipped": "noncommutative endomorphism ring"}
    if not (summary["ordinary"] or summary["d"] == summary["n"]):
        return {"m": group.m_text, "skipped": "neither ordinary nor prime field"}

    base = None
    for entry in group.iso_classes:
        if group.end(entry)["is_minimal"]:
            base = entry.rep
            break
    if base is None:
        raise CensusViolation(f"isogeny class {group.m_text}: no minimal member")
    # End(base) = A[pi]; the centralizer's basis of it is kept, not the
    # power basis of `minimal_frobenius_order`: it is degree-reduced, so
    # the norm forms of `lin_equiv` are cheaper (the power basis gives the
    # same output with 6% more APoly products on the validated F_9 rank-2
    # census, nearly all of them in `_norm_hits`)
    order = endomorphism_ring(base)

    iso_keys = {entry.key for entry in group.iso_classes}
    class_reps: list[FracIdeal] = []
    class_images: list[tuple] = []
    action_resolved = 0
    saturated = False
    all_hit_at = None
    level = -1
    while level < MAX_NORM_DEG:
        level += 1
        new_classes = 0
        for ideal in ideals_of_norm_degree(order, level):
            result = act(base, ideal)
            if not result.is_kernel:
                raise CensusViolation(
                    f"isogeny class {group.m_text}: minimal-order ideal is not kernel"
                )
            img_key = twist_orbit_key(result.image)
            if img_key not in iso_keys:
                raise CensusViolation(
                    f"isogeny class {group.m_text}: action left the isogeny class"
                )
            known = False
            for repi, rep_img in zip(class_reps, class_images):
                status, _ = lin_equiv(ideal, repi)
                if status == "yes":
                    # equivalent ideals must land in the same class (freeness)
                    if rep_img != img_key:
                        raise CensusViolation(
                            f"isogeny class {group.m_text}: action is not free"
                        )
                    known = True
                    break
                if status == "no":
                    # certified inequivalent: images must differ for kernel ideals
                    if rep_img == img_key:
                        raise CensusViolation(
                            f"isogeny class {group.m_text}: inequivalent kernel "
                            "ideals with isomorphic images"
                        )
                    continue
                # search bound exhausted: for kernel ideals, equivalence is
                # decided by the images themselves; record that theory, not
                # the bounded search, settled this pair
                action_resolved += 1
                if rep_img == img_key:
                    known = True
                    break
            if known:
                continue
            # every representative answered no, or unknown with another
            # image: the freeness checks above leave img_key new
            new_classes += 1
            class_reps.append(ideal)
            class_images.append(img_key)
        if set(class_images) == iso_keys and all_hit_at is None:
            all_hit_at = level
        if all_hit_at is not None and level > all_hit_at and new_classes == 0:
            saturated = True
            break
    if set(class_images) != iso_keys:
        raise CensusViolation(
            f"isogeny class {group.m_text}: action not transitive up to "
            f"norm degree {level}"
        )
    return {
        "m": group.m_text,
        "ideal_classes": len(class_reps),
        "iso_classes": len(group.iso_classes),
        "bijective": len(class_reps) == len(group.iso_classes),
        "saturated": saturated,
        "degraded": action_resolved > 0,
        "action_resolved_pairs": action_resolved,
        "max_norm_deg": level,
    }


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def census_records(tower: FieldTower, groups: dict[str, IsogenyClass]) -> list[dict]:
    """One JSON-ready record per isomorphism class of the partition
    `groups` (from `census_isomorphism_classes`), sorted by (m, iso_class);
    the partition lists each class's members in key order, which breaks
    ties."""
    from .serialize import kelem_to_json

    records = []
    for mtext, grp in groups.items():
        iso_id_base = short_hash(mtext)
        for entry in grp.iso_classes:
            rep_json = [kelem_to_json(tower, c) for c in entry.rep.coeff_vector()]
            rec = {
                "record": "class",
                "isogeny_class": iso_id_base,
                "iso_class": short_hash(repr(entry.key)),
                "phi_T": rep_json,
                "size": entry.size,
            }
            rec.update(grp.profile_summary)
            rec["end"] = dict(grp.end(entry))
            records.append(rec)
    records.sort(key=lambda r: (r["m"], r["iso_class"]))
    return records
