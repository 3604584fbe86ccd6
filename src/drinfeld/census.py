"""Exhaustive desk-scale censuses of Drinfeld modules.

A census fixes the tower, a rank and one root t per characteristic
prime, and enumerates every phi_T = t + g_1 tau + ... + g_r tau^r with
g_r != 0. The isomorphism classes are the orbits of k^x acting by
twisting, c phi c^{-1}: g_i -> c^(1-q^i) g_i. So the partition goes
orbit by orbit: it walks the candidates as coefficient tuples, and the
first time it meets one not yet visited it computes that module's
whole twist orbit directly on tuples, marks every member visited, and
records one class whose key (the orbit's lexicographic minimum) names
its representative and whose size is the orbit's size. Each class is
twisted once, not each module, and F_q^x, which acts trivially, is
factored out. The classes are then grouped into isogeny classes by the
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
from functools import cached_property, lru_cache

from .action import act
from .apoly import APoly, minimal_poly_over_fq
from .errors import CensusViolation, InseparableExtension, TooLarge
from .fields import FieldTower, KElem
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


def characteristic_roots(tower: FieldTower) -> list[tuple[APoly, KElem]]:
    """One canonical root per characteristic prime available in k,
    sorted by (degree, prime text)."""
    seen: dict[APoly, KElem] = {}
    for a in tower.elements():
        p = minimal_poly_over_fq(a)
        if p not in seen:
            seen[p] = a
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


@lru_cache(maxsize=32)
def _twist_multipliers(tower: FieldTower, rank: int) -> tuple[tuple[KElem, ...], ...]:
    """The distinct vectors (c^(1-q), ..., c^(1-q^rank)) over c in k^x.

    Twisting by c multiplies g_i by the i-th entry. Units with the same
    vector twist alike, so F_q^x (the all-one vector) and each coset of
    it are listed once."""
    out: dict[tuple, tuple[KElem, ...]] = {}
    for c in tower.elements():
        if not c:
            continue
        cinv = c.inv()
        vec = tuple(c * cinv.frobq(i) for i in range(1, rank + 1))
        out.setdefault(tuple(u.coeffs for u in vec), vec)
    return tuple(out.values())


def _twist_orbit(tower: FieldTower, coeffs: tuple[KElem, ...]) -> set[tuple]:
    """The twist orbit of phi_T = coeffs, as coefficient tuples."""
    t = coeffs[0].coeffs
    gs = coeffs[1:]
    return {
        (t,) + tuple((u * g).coeffs for u, g in zip(units, gs))
        for units in _twist_multipliers(tower, len(gs))
    }


def twist_orbit_key(module: DrinfeldModule) -> tuple:
    """Lexicographically least coefficient vector in the twist orbit."""
    return min(_twist_orbit(module.tower, module.coeff_vector()))


class IsoClass:
    __slots__ = ("key", "rep", "size", "end_summary")

    def __init__(self, key: tuple, rep: DrinfeldModule, size: int = 0):
        self.key = key
        self.rep = rep
        self.size = size
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
        """Endomorphism-ring record of a member's representative."""
        if not self.profile_summary["commutative"]:
            return {"commutative": False}
        if entry.end_summary is None:
            entry.end_summary = self._end_summary(entry.rep)
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


def census_isomorphism_classes(
    tower: FieldTower, rank: int, t: KElem
) -> dict[str, IsogenyClass]:
    """Partition all census modules into isomorphism classes grouped by
    isogeny class, one twist orbit per class."""
    visited: set[tuple] = set()
    classes: list[IsoClass] = []
    count = 0
    # every candidate has constant term t, so one characteristic prime
    char_prime = minimal_poly_over_fq(t)
    for coeffs in _candidate_vectors(tower, rank, t):
        count += 1
        if tuple(c.coeffs for c in coeffs) in visited:
            continue
        orbit = _twist_orbit(tower, coeffs)
        key = min(orbit)
        phi_t = SkewPoly(tower, [tower.elem(c) for c in key])
        rep = DrinfeldModule.with_char_prime(tower, phi_t, char_prime)
        classes.append(IsoClass(key, rep, len(orbit)))
        visited.update(orbit)
    if sum(c.size for c in classes) != count:
        raise CensusViolation("partition sizes do not add up")
    out: dict[str, IsogenyClass] = {}
    for entry in sorted(classes, key=lambda e: e.key):
        prof = entry.rep.profile()
        mtext = prof.min_poly_text()
        grp = out.get(mtext)
        if grp is None:
            grp = IsogenyClass(
                mtext,
                {
                    "m": mtext,
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
                },
            )
            out[mtext] = grp
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


def validate_ideal_class_action(
    group: IsogenyClass,
    max_norm_ceiling: int = 6,
    lin_equiv_bound: int = 2,
) -> dict:
    """Free and transitive action of ideal classes of the minimal order
    on the isomorphism classes of an ordinary or prime-field class.

    Ideals are enumerated by norm degree until every isomorphism class
    is hit and one further level adds no new ideal class (saturation),
    or the ceiling trips. Raises CensusViolation on a freeness or
    transitivity failure; linear-equivalence Unknowns degrade the
    report instead."""
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
    degraded = False
    action_resolved = 0
    saturated = False
    all_hit_at = None
    level = -1
    while level < max_norm_ceiling:
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
                status, _ = lin_equiv(ideal, repi, lin_equiv_bound)
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
                degraded = True
                action_resolved += 1
                if rep_img == img_key:
                    known = True
                    break
            if known:
                continue
            new_classes += 1
            class_reps.append(ideal)
            if img_key in class_images:
                raise CensusViolation(
                    f"isogeny class {group.m_text}: action is not free"
                )
            class_images.append(img_key)
        if set(class_images) == iso_keys and all_hit_at is None:
            all_hit_at = level
        if all_hit_at is not None and level > all_hit_at and new_classes == 0:
            saturated = True
            break
    hit_all = set(class_images) == iso_keys
    if not hit_all:
        raise CensusViolation(
            f"isogeny class {group.m_text}: action not transitive up to "
            f"norm degree {level}"
        )
    return {
        "m": group.m_text,
        "ideal_classes": len(class_reps),
        "iso_classes": len(group.iso_classes),
        "bijective": hit_all and len(class_reps) == len(group.iso_classes),
        "saturated": saturated,
        "degraded": degraded,
        "action_resolved_pairs": action_resolved,
        "max_norm_deg": level,
    }


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def census_records(tower: FieldTower, groups: dict[str, IsogenyClass]) -> list[dict]:
    """One JSON-ready record per isomorphism class of the partition
    `groups` (from `census_isomorphism_classes`), deterministically
    ordered."""
    from .serialize import kelem_to_json

    records = []
    for mtext in sorted(groups):
        grp = groups[mtext]
        iso_id_base = short_hash(mtext)
        for entry in sorted(grp.iso_classes, key=lambda e: e.key):
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
