"""Seeded inputs and output checks for the three benchmark workloads.

`make_plan(name, seed, workdir, reference)` writes the inputs of one run
into `workdir` and returns a `Plan`: the fields loaded during set-up, the
processes that make up one job (each a list of CLI requests), the work
items a job completes, and the requests' expectations. The program sees
only the files written here. The same seed gives byte-identical files.

`check(request, output_bytes)` returns None when the output is correct,
else a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0

F16_QUARTICS = ([1, 1, 0, 0, 1], [1, 0, 0, 1, 1], [1, 1, 1, 1, 1])

F9 = {"p": 3, "e": 1, "h": [0, 1], "n": 2, "g": [2, 1, 1]}
# every characteristic root in F_9 = F_3[x]/(x^2+x+2), by prime degree
F9_ROOTS = {
    1: ([0, 0], [2, 0], [1, 0]),
    2: ([1, 2], [2, 1], [0, 1], [2, 2], [0, 2], [1, 1]),
}

QUERY_TOWERS = {
    "F64": {"p": 2, "e": 1, "h": [0, 1], "n": 6, "g": [1, 0, 0, 0, 0, 1, 1]},
    "F81": {"p": 3, "e": 1, "h": [0, 1], "n": 4, "g": [1, 0, 1, 1, 1]},
    "F256": {"p": 2, "e": 1, "h": [0, 1], "n": 8, "g": [1, 0, 0, 0, 1, 1, 0, 1, 1]},
    "F729": {"p": 3, "e": 1, "h": [0, 1], "n": 6, "g": [1, 0, 0, 0, 1, 1, 1]},
}
# per tower: (rank, modules, requests per module in session order). A pass
# takes about 7 s on a 2-core sandbox, so a run repeats it and each
# request's latency is a median over passes. The sixteen rank-3 endring
# requests over F_256 (120-280 ms each) are the top sixth
# of the latencies, so p90 falls inside one tight group. Cells whose cost
# varies several-fold between modules of one seed (ideal-act over F_64 and
# above, rank-4 endring) are left out; they made p90 move by 30% from seed
# to seed.
QUERY_SESSIONS = {
    "F64": ((3, 6, ("analyze", "endring")), (4, 2, ("analyze",)), (5, 6, ("analyze",))),
    "F81": ((3, 8, ("analyze", "endring", "ideal-act")), (4, 3, ("analyze",))),
    "F256": ((3, 16, ("analyze", "endring")), (5, 4, ("analyze",))),
    "F729": ((3, 6, ("analyze", "endring")), (4, 4, ("analyze",)), (5, 6, ("analyze",))),
}

WORKLOADS = ("census-partition", "census-validate", "queries")

# query reports are checked against sha256 prefixes of this many hex
# digits, recorded per seed in reference.json
QUERY_DIGEST_CHARS = 16


@dataclass
class Request:
    id: str
    argv: list[str]
    out: str
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    fields: list[dict]
    processes: list[list[Request]]
    items: int

    @property
    def requests(self) -> list[Request]:
        return [r for proc in self.processes for r in proc]


def _write(workdir: str, name: str, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _census_request(workdir, rid, spec, extra, expect) -> Request:
    inp = _write(workdir, f"{rid}.json", spec)
    out = os.path.join(workdir, f"{rid}.out.jsonl")
    return Request(rid, ["census", "--input", inp, "--out", out] + extra, out, expect)


def plan_census_partition(seed: int, workdir: str, reference: dict) -> Plan:
    g = _rng("census-partition", seed).choice(F16_QUARTICS)
    field_spec = {"p": 2, "e": 1, "h": [0, 1], "n": 4, "g": g}
    ref = reference["census-partition"]
    expect = {
        "candidates_per_root": 16**2 - 16,
        "classes": ref["classes"],
        "digest": ref["digests"][",".join(map(str, g))],
    }
    req = _census_request(
        workdir, "partition", {"field": field_spec, "rank": 2}, ["--skip-validate"], expect
    )
    items = expect["candidates_per_root"] * len(ref["classes"])
    return Plan([field_spec], [[req]], items)


def plan_census_validate(seed: int, workdir: str, reference: dict) -> Plan:
    rng = _rng("census-validate", seed)
    roots = [rng.choice(F9_ROOTS[1]), rng.choice(F9_ROOTS[2])]
    processes, items = [], 0
    for idx, t in enumerate(roots):
        ref = reference["census-validate"][",".join(map(str, t))]
        expect = {
            "candidates_per_root": 9**2 - 9,
            "classes": [ref["classes"]],
            "digest": ref["digest"],
            "validated": ref["validated"],
        }
        req = _census_request(
            workdir, f"validate{idx}", {"field": F9, "rank": 2, "t": t}, [], expect
        )
        processes.append([req])
        items += ref["validated"]
    return Plan([F9], processes, items)


def _random_module(rng: random.Random, spec: dict, rank: int) -> list[list[int]]:
    q, n = spec["p"] ** spec["e"], spec["n"]

    def elem(nonzero: bool) -> list[int]:
        while True:
            v = [rng.randrange(q) for _ in range(n)]
            if any(v) or not nonzero:
                return v

    return [elem(True)] + [elem(False) for _ in range(rank - 1)] + [elem(True)]


def _random_ideal(rng: random.Random, q: int, s: int) -> dict:
    """The ideal generated by (T + c_1) e_1 + c_2 e_2 + ... + c_s e_s with
    random c_i in F_q. Every draw has this shape, so that the act requests
    of different seeds cost alike."""
    lead = [[rng.randrange(q), 1]]
    return {"generators": [lead + [[rng.randrange(q)] for _ in range(s - 1)]]}


def has_commutative_end(module_spec: dict) -> bool:
    """True when End(phi) is commutative (needs `drinfeld` importable)."""
    from drinfeld.serialize import module_from_json

    return module_from_json(module_spec).profile().end_ring_commutative


def query_modules(seed: int) -> list[tuple[str, int, tuple, dict]]:
    """(tower name, rank, request kinds, module spec) per session, in order.

    Modules are distinct and have commutative End, so every request is
    expected to succeed."""
    rng = _rng("queries", seed)
    seen = set()
    sessions = []
    for tname, spec in QUERY_TOWERS.items():
        for rank, count, kinds in QUERY_SESSIONS[tname]:
            made = 0
            while made < count:
                phi = _random_module(rng, spec, rank)
                key = (tname, json.dumps(phi))
                if key in seen:
                    continue
                module = {"field": spec, "phi_T": phi}
                if not has_commutative_end(module):
                    continue
                seen.add(key)
                sessions.append((tname, rank, kinds, module))
                made += 1
    rng.shuffle(sessions)
    return sessions


def plan_queries(seed: int, workdir: str, reference: dict) -> Plan:
    rng = _rng("queries-ideals", seed)
    digests = reference["queries"]["digests"].get(str(seed))
    requests = []
    for sidx, (tname, rank, kinds, module) in enumerate(query_modules(seed)):
        mod_path = _write(workdir, f"m{sidx:03d}.json", module)
        for kind in kinds:
            rid = f"q{len(requests):03d}"
            out = os.path.join(workdir, f"{rid}.out.json")
            argv = [kind, "--input", mod_path, "--out", out]
            if kind == "ideal-act":
                spec = module["field"]
                ideal = _random_ideal(rng, spec["p"] ** spec["e"], rank)
                ideal_path = _write(workdir, f"{rid}.ideal.json", ideal)
                argv += ["--ideal", ideal_path]
            expect = {"kind": kind, "rank": rank}
            if digests is not None:
                expect["digest"] = digests[len(requests)]
            requests.append(Request(rid, argv, out, expect))
    return Plan(list(QUERY_TOWERS.values()), [requests], len(requests))


PLANNERS = {
    "census-partition": plan_census_partition,
    "census-validate": plan_census_validate,
    "queries": plan_queries,
}


def make_plan(workload: str, seed: int, workdir: str, reference: dict) -> Plan:
    return PLANNERS[workload](seed, workdir, reference)


# -- checks --


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def census_summary(data: bytes) -> dict:
    """Per-root isomorphism-class sizes grouped by isogeny class, and
    record counts, from census JSONL."""
    blocks: list[dict] = []
    violations = validated = 0
    for line in data.decode("utf-8").splitlines():
        rec = json.loads(line)
        kind = rec["record"]
        if kind == "header":
            blocks.append({})
        elif kind == "class":
            blocks[-1].setdefault(rec["m"], []).append(rec["size"])
        elif kind == "violation":
            violations += 1
        elif kind == "validation" and "skipped" not in rec["ideal_class_action"]:
            validated += 1
    return {
        "classes": [{m: sorted(s) for m, s in sorted(b.items())} for b in blocks],
        "violations": violations,
        "validated": validated,
    }


def _check_census(expect: dict, data: bytes) -> str | None:
    summary = census_summary(data)
    if summary["violations"]:
        return f"{summary['violations']} violation records"
    for block in summary["classes"]:
        total = sum(sum(sizes) for sizes in block.values())
        if total != expect["candidates_per_root"]:
            return f"partition sizes sum to {total}, not {expect['candidates_per_root']}"
    if summary["classes"] != expect["classes"]:
        return "isomorphism-class counts per isogeny class differ from the reference"
    if "validated" in expect and summary["validated"] != expect["validated"]:
        return f"{summary['validated']} validated isogeny classes, not {expect['validated']}"
    if sha256(data) != expect["digest"]:
        return "census JSONL differs from the reference digest"
    return None


def _check_query(expect: dict, data: bytes) -> str | None:
    report = json.loads(data)
    r = expect["rank"]
    kind = expect["kind"]
    if kind == "analyze":
        if report["r"] != r or report["s"] != r or not report["end_ring_commutative"]:
            return "analyze: expected a commutative Frobenius field of degree r"
    elif kind == "endring":
        table = report["mult_table"]
        if report["rank"] != r or len(report["basis"]) != r or len(table) != r:
            return "endring: expected an A-order of rank r"
    elif kind == "ideal-act":
        psi = report["psi_T"]
        if len(psi) != r + 1 or not any(psi[-1]) or report["u_degree"] < 0:
            return "ideal-act: image is not a rank-r module"
    if "digest" in expect and sha256(data)[:QUERY_DIGEST_CHARS] != expect["digest"]:
        return f"{kind}: report differs from the reference digest"
    return None


def check(request: Request, data: bytes) -> str | None:
    try:
        if request.argv[0] == "census":
            return _check_census(request.expect, data)
        return _check_query(request.expect, data)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
