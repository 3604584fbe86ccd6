"""Record reference.json: the outputs every benchmark run is checked against.

Run from the repository root at the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

It runs the census of every input the census workloads can draw (the
three F_16 quartics, the nine F_9 roots) and the queries of seeds
`QUERY_SEEDS`, and stores output digests and isomorphism-class counts per
isogeny class. The F_16 class counts must not depend on the drawn quartic;
the recording stops if they do. It takes about 10 minutes on a 2-core
x86_64 machine.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402

# the seeds whose query reports are checked digest by digest; other seeds
# get the shape checks only
QUERY_SEEDS = range(0, 41)


def census_output(workdir: str, spec: dict, flags: list[str]) -> bytes:
    run = bench.Run("reference", workloads.DEFAULT_SEED, workdir)
    inp = os.path.join(run.workdir, "census.json")
    out = os.path.join(run.workdir, "census.out.jsonl")
    with open(inp, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    rc, _, _, _, _ = run.spawn(["-m", "drinfeld", "census", "--input", inp, "--out", out] + flags)
    if rc != 0:
        raise SystemExit(f"census of {spec} exited with {rc}")
    with open(out, "rb") as fh:
        return fh.read()


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(bench.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=bench.WORK_ROOT)
    try:
        ref: dict = {"census-partition": {"digests": {}}, "census-validate": {}}
        for g in workloads.F16_QUARTICS:
            spec = {"p": 2, "e": 1, "h": [0, 1], "n": 4, "g": g}
            data = census_output(workdir, {"field": spec, "rank": 2}, ["--skip-validate"])
            classes = workloads.census_summary(data)["classes"]
            if ref["census-partition"].setdefault("classes", classes) != classes:
                raise SystemExit(f"F_16 class counts depend on the quartic {g}")
            ref["census-partition"]["digests"][",".join(map(str, g))] = workloads.sha256(data)
        for roots in workloads.F9_ROOTS.values():
            for t in roots:
                data = census_output(workdir, {"field": workloads.F9, "rank": 2, "t": t}, [])
                summary = workloads.census_summary(data)
                if summary["violations"]:
                    raise SystemExit(f"violation records for t = {t}")
                ref["census-validate"][",".join(map(str, t))] = {
                    "classes": summary["classes"][0],
                    "validated": summary["validated"],
                    "digest": workloads.sha256(data),
                }
                print(f"t = {t}: {summary['validated']} validated isogeny classes", file=sys.stderr)
        ref["queries"] = {"digests": {}}
        for seed in QUERY_SEEDS:
            run = bench.Run("reference", seed, workdir)
            plan = workloads.plan_queries(seed, workdir, ref)
            run.run_process(plan, plan.requests, trace=False)
            if run.failed:
                raise SystemExit(f"queries of seed {seed} failed: {run.errors}")
            digests = []
            for r in plan.requests:
                with open(r.out, "rb") as fh:
                    digests.append(workloads.sha256(fh.read())[:workloads.QUERY_DIGEST_CHARS])
            ref["queries"]["digests"][str(seed)] = digests
            print(f"queries seed {seed}: {len(digests)} reports", file=sys.stderr)
        with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
