"""Census of all rank-2 Drinfeld modules over F_4 and validation of the
two classification statements.

For each characteristic prime available in F_4 the script enumerates
every phi_T, partitions the modules into isomorphism classes inside
isogeny classes, then checks that (a) the minimal order A[pi] occurs as
an endomorphism ring exactly in the ordinary and prime-field classes,
and (b) in those classes the ideal classes of A[pi] act freely and
transitively on the isomorphism classes.
"""

from drinfeld import (
    FieldTower,
    census_isomorphism_classes,
    characteristic_roots,
    validate_ideal_class_action,
    validate_minimal_order_occurrence,
)


def main() -> None:
    tower = FieldTower(2, 1, [0, 1], 2, [1, 1, 1])
    rank = 2
    for prime, t in characteristic_roots(tower):
        print(f"\n=== characteristic prime {prime.text()}, t = {t.text()} ===")
        groups = census_isomorphism_classes(tower, rank, t)
        for mtext in sorted(groups):
            grp = groups[mtext]
            sizes = [c.size for c in grp.iso_classes]
            summary = grp.profile_summary
            print(
                f"m = {mtext:<24} H={summary['H']} "
                f"iso classes {sizes} (ordinary={summary['ordinary']})"
            )
            occurrence = validate_minimal_order_occurrence(grp)
            if "skipped" in occurrence:
                print(f"    occurrence check skipped: {occurrence['skipped']}")
                continue
            print(
                f"    A[pi] occurs as an endomorphism ring: {occurrence['occurs']} "
                f"(expected {occurrence['expected']})"
            )
            action = validate_ideal_class_action(grp)
            if "skipped" in action:
                print(f"    action check skipped: {action['skipped']}")
                continue
            print(
                f"    ideal classes: {action['ideal_classes']}  "
                f"iso classes: {action['iso_classes']}  "
                f"bijective: {action['bijective']} (saturated at norm degree "
                f"{action['max_norm_deg']})"
            )


if __name__ == "__main__":
    main()
