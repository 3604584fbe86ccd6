"""Command line interface.

Subcommands: analyze, endring, ideal-act, kernel-test, census,
paper-examples. Exit code 0 on success, 1 on an assertion or
verification failure, 2 on an input error, 141 when the reader of the
output closed it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .census import (
    census_records,
    census_isomorphism_classes,
    characteristic_roots,
    check_census_rank,
    validate_ideal_class_action,
    validate_minimal_order_occurrence,
)
from .errors import AlgebraError, CensusViolation, TooLarge
from .serialize import (
    SpecError,
    analyze_report,
    dumps_canonical,
    endring_report,
    field_from_json,
    field_to_json,
    ideal_act_report,
    json_field,
    json_keys,
    json_object,
    kelem_from_json,
    kelem_to_json,
    kernel_test_report,
    module_from_json,
    render_text,
)

# the status a shell reports for a process ended by SIGPIPE (128 + 13)
EXIT_BROKEN_PIPE = 141

SCHEMA_VERSION = 1

# the subcommands that answer one request about one module: each reads
# the module (and, with --ideal, an ideal) and emits one report
REPORTS = {
    "analyze": analyze_report,
    "endring": endring_report,
    "ideal-act": ideal_act_report,
    "kernel-test": kernel_test_report,
}


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    leaves no state in it, and each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="drinfeld",
        description="Frobenius invariants, endomorphism rings and ideal "
        "actions of Drinfeld modules over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "Frobenius invariants and local-maximality verdict"),
        ("endring", "endomorphism ring basis, table, Gorenstein verdicts"),
        ("ideal-act", "apply an ideal to a module"),
        ("kernel-test", "kernel-ideal verdict with witness"),
        ("census", "exhaustive census with theorem validation"),
        ("paper-examples", "golden runner for the published worked examples"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name != "paper-examples":
            p.add_argument("--input", required=True, help="input JSON path")
        p.add_argument("--out", help="output path (default stdout)")
        if name in ("ideal-act", "kernel-test"):
            p.add_argument("--ideal", required=True, help="ideal JSON path")
        if name == "census":
            p.add_argument("--skip-validate", action="store_true")
        else:
            p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


class _InputObject(dict):
    """A JSON object read from an input file; a missing field is an input
    error that names the file."""

    def __init__(self, path: str, pairs):
        super().__init__(pairs)
        self.path = path

    def __missing__(self, key):
        raise SpecError(f"{self.path}: missing field {key!r}")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, object_pairs_hook=lambda pairs: _InputObject(path, pairs))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)
        # a reader that went away shows up here, inside main, rather than
        # when the interpreter flushes stdout on exit
        sys.stdout.flush()


def _emit_report(report: dict, args) -> None:
    if args.format == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    else:
        _emit(render_text(report), args.out)


def _run_census(args) -> int:
    data = _load_json(args.input)
    json_keys(data, ("field", "rank", "t"))
    tower = json_field(data, "field", lambda v: field_from_json(json_object(v)))
    rank = data["rank"]
    check_census_rank(tower, rank)
    if "t" in data and data["t"] is not None:
        roots = [(None, json_field(data, "t", lambda v: kelem_from_json(tower, v)))]
    else:
        roots = characteristic_roots(tower)
    lines = []
    failures = 0
    for _, t in roots:
        header = {
            "record": "header",
            "schema": SCHEMA_VERSION,
            "field": field_to_json(tower),
            "rank": rank,
            "t": kelem_to_json(tower, t),
            # schema 1 keeps the field; a census draws no random numbers
            "seed": 0,
        }
        lines.append(dumps_canonical(header))
        groups = census_isomorphism_classes(tower, rank, t)
        for rec in census_records(tower, groups):
            lines.append(dumps_canonical(rec))
        if not args.skip_validate:
            for mtext in sorted(groups):
                grp = groups[mtext]
                try:
                    rep_a = validate_minimal_order_occurrence(grp)
                    rep_b = validate_ideal_class_action(grp)
                    lines.append(
                        dumps_canonical(
                            {
                                "record": "validation",
                                "minimal_order_occurrence": rep_a,
                                "ideal_class_action": rep_b,
                            }
                        )
                    )
                except CensusViolation as exc:
                    failures += 1
                    lines.append(
                        dumps_canonical({"record": "violation", "detail": str(exc)})
                    )
    _emit("\n".join(lines), args.out)
    return 1 if failures else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = REPORTS.get(args.command)
        if report is not None:
            module = module_from_json(_load_json(args.input))
            # the ideal file is read after the module: a bad module is reported first
            ideals = [_load_json(args.ideal)] if hasattr(args, "ideal") else []
            _emit_report(report(module, *ideals), args)
            return 0
        if args.command == "census":
            return _run_census(args)
        if args.command == "paper-examples":
            from .worked_examples import run_worked_examples, summary_lines

            results = run_worked_examples()
            if args.format == "json":
                _emit(json.dumps(results, indent=2), args.out)
            else:
                _emit("\n".join(summary_lines(results)), args.out)
            return 1 if any(r["status"] == "FAIL" for r in results) else 0
    except BrokenPipeError:
        # the reader closed our output (`drinfeld ... | head`): not an input
        # error. Point stdout at devnull, so that the flush at exit does not
        # fail again, and exit as a process ended by SIGPIPE does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError, TooLarge) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CensusViolation as exc:
        print(f"census violation: {exc}", file=sys.stderr)
        return 1
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
