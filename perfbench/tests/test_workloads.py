"""Tests of the benchmark's own code: generators, checks, tracing, refusal.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


def _inputs(workload: str, seed: int, workdir: str) -> tuple[dict, list]:
    plan = workloads.make_plan(workload, seed, workdir, REFERENCE)
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    argvs = [[a.replace(workdir, "<dir>") for a in r.argv] for r in plan.requests]
    return files, argvs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert _inputs(workload, 7, str(a)) == _inputs(workload, 7, str(b))


def test_queries_seeds_give_different_modules():
    first = [m["phi_T"] for *_, m in workloads.query_modules(0)]
    second = [m["phi_T"] for *_, m in workloads.query_modules(1)]
    assert len(first) == len(second) >= 40
    assert not set(map(json.dumps, first)) & set(map(json.dumps, second))


def test_queries_have_at_least_100_requests(tmp_path):
    plan = workloads.make_plan("queries", 3, str(tmp_path), REFERENCE)
    assert len(plan.requests) >= 100


def test_every_queries_module_has_commutative_end():
    from drinfeld.orders import endomorphism_ring
    from drinfeld.serialize import module_from_json

    for _, rank, _, spec in workloads.query_modules(workloads.DEFAULT_SEED):
        assert endomorphism_ring(module_from_json(spec)).s == rank


def test_queries_reports_checked_by_digest_at_recorded_seeds(tmp_path):
    recorded = workloads.make_plan("queries", 5, str(tmp_path), REFERENCE)
    assert all(len(r.expect["digest"]) == workloads.QUERY_DIGEST_CHARS
               for r in recorded.requests)
    unrecorded = workloads.make_plan("queries", 10**6, str(tmp_path), REFERENCE)
    assert not any("digest" in r.expect for r in unrecorded.requests)


def test_checks_reject_wrong_outputs(tmp_path):
    plan = workloads.make_plan("census-validate", 0, str(tmp_path), REFERENCE)
    req = plan.requests[0]
    assert workloads.check(req, b"") is not None
    header = {"record": "header"}
    bogus = [header, {"record": "class", "m": "x", "size": 72}]
    data = "\n".join(json.dumps(r) for r in bogus).encode()
    assert "reference" in workloads.check(req, data)
    report = json.dumps({"kind": "endring", "rank": 2, "basis": [], "mult_table": []})
    query = workloads.Request("q", ["endring"], "", {"kind": "endring", "rank": 3})
    assert workloads.check(query, report.encode()) is not None


def test_trace_counters_repeat(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    spec = workloads.QUERY_TOWERS["F81"]
    module = {"field": spec, "phi_T": [[1, 1, 0, 0], [0, 1, 0, 0], [2, 0, 0, 1], [1, 0, 0, 0]]}
    assert workloads.has_commutative_end(module)
    mod_path = workloads._write(str(tmp_path), "m.json", module)
    ideal_path = workloads._write(str(tmp_path), "i.json", workloads._random_ideal(
        workloads.random.Random(0), 3, 3))
    requests = [
        workloads.Request(kind, [kind, "--input", mod_path, "--out", str(tmp_path / f"{kind}.json")]
                          + (["--ideal", ideal_path] if kind == "ideal-act" else []),
                          str(tmp_path / f"{kind}.json"), {"kind": kind, "rank": 3})
        for kind in ("analyze", "endring", "ideal-act")
    ]
    plan = workloads.Plan([spec], [requests], len(requests))
    run = bench.Run("test", 0, str(tmp_path), keep_dir=str(tmp_path))
    counts = []
    for _ in range(2):
        proc = run.run_process(plan, requests, trace=True)
        stats = proc["trace"]["stats"]
        counts.append({name: (v[0], v[2]) for name, v in stats.items()})
    assert run.failed == 0, run.errors
    assert counts[0] == counts[1]
    assert counts[0]["action.act"][0] == 1
    assert counts[0]["orders.endomorphism_ring"][0] >= 2

    with open(proc["spans"], encoding="utf-8") as fh:
        spans = json.load(fh)
    assert spans["columns"] == ["id", "parent", "request", "name", "start", "end"]
    roots = [rec for rec in spans["records"] if rec[1] == 0]
    assert [rec[2] for rec in roots] == [r.id for r in requests]
    assert {rec[3] for rec in spans["records"]} >= {"action.act", "orders.endomorphism_ring"}


def test_probe_runs_between_requests_and_is_left_out_of_program_cpu(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    plan = workloads.make_plan("queries", 0, str(tmp_path), REFERENCE)
    requests = plan.requests[:3]
    run = bench.Run("test", 0, str(tmp_path), keep_dir=str(tmp_path))
    proc = run.run_process(plan, requests, trace=False)
    assert run.failed == 0, run.errors
    # one slice after set-up, at least one after each request
    assert proc["probe"]["slices"] >= len(requests) + 1
    assert 0.0 < proc["probe"]["cpu_s"] < proc["cpu"]
    job = run.run_job(workloads.Plan(plan.fields, [requests], len(requests)))
    assert job["cpu"] == pytest.approx(job["procs"][0]["cpu"] - job["probe_cpu"])
    assert job["work_cpu"] > sum(job["procs"][0]["cpu_latencies"]) * 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
