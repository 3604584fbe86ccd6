"""Benchmark of the drinfeld CLI: census-partition, census-validate, queries.

Run from the repository root:

    python3 perfbench/run.py --workload queries --seed 3 --seconds 30 --trace 0

Each job spawns `perfbench/child.py`, which imports the package from
./src, loads the workload's fields and then serves the job's CLI requests
through `drinfeld.cli.main`, one at a time (a closed loop with one client).
Jobs repeat until the next one would end after `--seconds`; at least one
runs. Every output is checked against `reference.json`; a wrong output, an
unexpected exit code or a crash counts as a failed operation.

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` one untraced and one traced job run and the last line holds the
per-layer metrics (see README.md). The traced processes' span records are
kept in .perfbench_work/<workload>-seed<N>-job<K>.spans.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from calibrate import REFERENCE_SLICE_S  # noqa: E402
from spans import LAYERS  # noqa: E402

WORK_ROOT = ".perfbench_work"
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0
PAPER_EXAMPLES = {"PASS": 47, "DISCREPANCY": 3, "FAIL": 0}


class Run:
    """State of one benchmark run: its work directory (removed when the run
    ends), the directory that keeps span records, time limit and tally."""

    def __init__(self, workload: str, seed: int, workdir: str, keep_dir: str = WORK_ROOT):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.keep_dir = keep_dir
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH="src")
        self.counter = 0

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(reason)

    def spawn(self, argv: list[str]) -> tuple[int, float, float, float, float]:
        """Run a Python process to exit; returns (exit code, spawn time,
        wall seconds, CPU seconds, peak RSS in MB). Killed if the run would
        overrun."""
        limit = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        err_path = os.path.join(self.workdir, f"stderr{self.counter}.txt")
        self.counter += 1
        with open(err_path, "w", encoding="utf-8") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable] + argv, env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # SIGTERM or Ctrl-C: leave no process behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.monotonic() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, spawned, wall, cpu, usage.ru_maxrss / 1024.0

    def run_process(self, plan, requests, trace: bool) -> dict:
        """One child process serving `requests`; checks every output."""
        tag = f"job{self.counter}"
        spans = None
        if trace:
            spans = os.path.join(self.keep_dir, f"{self.workload}-seed{self.seed}-{tag}.spans.json")
        job = {
            "fields": plan.fields,
            "requests": [{"id": r.id, "argv": r.argv} for r in requests],
            "trace": trace,
            "result": os.path.join(self.workdir, f"{tag}.result.json"),
            "spans_out": spans,
        }
        job_path = os.path.join(self.workdir, f"{tag}.job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        for path in [r.out for r in requests] + [spans]:
            if path and os.path.exists(path):
                os.remove(path)
        rc, spawned, wall, cpu, rss = self.spawn([os.path.join(HERE, "child.py"), job_path])
        proc = {"wall": wall, "cpu": cpu, "rss": rss, "latencies": [], "cpu_latencies": [],
                "setup": None, "setup_wall": 0.0, "setup_cpu": 0.0,
                "probe": {"slices": 0, "cpu_s": 0.0},
                "trace": None, "spans": spans}
        try:
            with open(job["result"], encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            result = None
        if rc != 0 or result is None:
            for r in requests:
                self.attempted += 1
                self.fail(f"{r.id}: benchmark process exited with {rc}")
            return proc
        proc["setup"] = scaled_setup(result)
        proc["setup_wall"] = result["setup_done"] - spawned
        proc["setup_cpu"] = result["setup_cpu"]
        proc["probe"] = result["probe"]
        proc["trace"] = result.get("trace")
        proc["traced_s"] = sum(x[3] or 0.0 for x in result["requests"])
        for r, (code, latency, cpu_latency, _) in zip(requests, result["requests"]):
            self.attempted += 1
            proc["latencies"].append(latency)
            proc["cpu_latencies"].append(cpu_latency)
            if code != 0:
                self.fail(f"{r.id}: exit code {code}")
                continue
            try:
                with open(r.out, "rb") as fh:
                    data = fh.read()
            except OSError:
                self.fail(f"{r.id}: no output written")
                continue
            reason = workloads.check(r, data)
            if reason:
                self.fail(f"{r.id}: {reason}")
        return proc

    def run_job(self, plan, trace: bool = False) -> dict:
        procs = [self.run_process(plan, reqs, trace) for reqs in plan.processes]
        setups = [p["setup"] for p in procs if p["setup"] is not None]
        wall = sum(p["wall"] for p in procs)
        probe_cpu = sum(p["probe"]["cpu_s"] for p in procs)
        cpu = sum(p["cpu"] for p in procs) - probe_cpu
        return {
            "procs": procs,
            "wall": wall,
            "cpu": cpu,
            "setups": setups,
            "work_cpu": cpu - sum(p["setup_cpu"] for p in procs),
            "probe_slices": sum(p["probe"]["slices"] for p in procs),
            "probe_cpu": probe_cpu,
            "rss": max(p["rss"] for p in procs),
        }

    def preflight(self) -> None:
        """Golden runner for the paper's worked examples, untimed."""
        out = os.path.join(self.workdir, "paper-examples.json")
        rc, _, _, _, _ = self.spawn(
            ["-m", "drinfeld", "paper-examples", "--format", "json", "--out", out]
        )
        self.attempted += 1
        try:
            with open(out, encoding="utf-8") as fh:
                results = json.load(fh)
        except (OSError, ValueError):
            self.fail(f"paper-examples: exit code {rc}, no report")
            return
        counts = {k: sum(1 for r in results if r["status"] == k) for k in PAPER_EXAMPLES}
        if rc != 0 or counts != PAPER_EXAMPLES or len(results) != sum(PAPER_EXAMPLES.values()):
            self.fail(f"paper-examples: exit code {rc}, statuses {counts}")

    def setup_probe(self, plan) -> float | None:
        """A process that only sets up; returns `scaled_setup`."""
        job = {"fields": plan.fields, "requests": [], "trace": False,
               "result": os.path.join(self.workdir, "probe.result.json"), "spans_out": None}
        path = os.path.join(self.workdir, "probe.job.json")
        if os.path.exists(job["result"]):
            os.remove(job["result"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        rc, _, _, _, _ = self.spawn([os.path.join(HERE, "child.py"), path])
        self.attempted += 1
        try:
            with open(job["result"], encoding="utf-8") as fh:
                setup = scaled_setup(json.load(fh))
        except (OSError, ValueError, KeyError):
            setup = None
        if rc != 0 or setup is None:
            self.fail(f"set-up probe: exit code {rc}")
            return None
        return setup


def scaled_setup(result: dict) -> float | None:
    """A process's set-up CPU seconds, the probe's own left out, at the
    reference speed of the probe slices it ran during set-up; None for a
    traced process, which runs no probe."""
    slices, probe_cpu = result["setup_probe"]
    return REFERENCE_SLICE_S * slices / probe_cpu * result["setup_cpu"] if probe_cpu else None


def quantile(values: list[float], pct: int) -> float:
    """Inclusive percentile; 0.0 when every process failed (the run is
    then reported incorrect)."""
    if len(values) <= 1:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_request_median(jobs: list[dict], key: str, scaled: bool = False) -> list[float]:
    """Each request's time (`key` of its process), times its job's scale
    when `scaled`, as its median over the jobs, so a slow spell of the
    machine during one job moves the percentiles less."""
    first = [p[key] for p in jobs[0]["procs"]]
    return [
        statistics.median((job["scale"] if scaled else 1.0) * job["procs"][i][key][j]
                          for job in jobs if len(job["procs"][i][key]) > j)
        for i, times in enumerate(first) for j in range(len(times))
    ]


def end_to_end(run: Run, plan, seconds: float) -> dict:
    run.preflight()
    measure_from = time.monotonic()
    deadline = measure_from + seconds
    setups = [s for s in (run.setup_probe(plan) for _ in range(SETUP_PROBES)) if s is not None]
    jobs = []
    while True:
        jobs.append(run.run_job(plan))
        walls = [j["wall"] for j in jobs]
        if time.monotonic() + statistics.median(walls) > deadline:
            break
    for job in jobs:
        setups.extend(job["setups"])
    # the program's CPU times (the probe's own left out), each job's scaled
    # to the machine speed at which a probe slice takes REFERENCE_SLICE_S;
    # the probe interrupts the job's work, so its scale follows the host's
    # speed through the job (calibrate.py, README.md "Noise and bounds")
    for job in jobs:
        job["scale"] = (REFERENCE_SLICE_S * job["probe_slices"] / job["probe_cpu"]
                        if job["probe_cpu"] else 1.0)
    cpu_latencies = per_request_median(jobs, "cpu_latencies", scaled=True)
    m = {
        "job_cpu_s": (statistics.median(j["scale"] * j["cpu"] for j in jobs), "s"),
        "setup_s": (quantile(setups, 50), "s"),
        "work_per_cpu_s": (statistics.median(plan.items / (j["scale"] * j["work_cpu"])
                                             for j in jobs), "1/s"),
        "request_cpu_p50_ms": (1000 * quantile(cpu_latencies, 50), "ms"),
        "request_cpu_p90_ms": (1000 * quantile(cpu_latencies, 90), "ms"),
        "peak_rss_mb": (statistics.median(j["rss"] for j in jobs), "MB"),
    }
    latencies = per_request_median(jobs, "latencies")
    setup_walls = [p["setup_wall"] for j in jobs for p in j["procs"]]
    scales = [j["scale"] for j in jobs]
    print(f"# unscaled: job scales {min(scales):.3f}-{max(scales):.3f}, "
          f"set-up wall {statistics.median(setup_walls):.4f} s, "
          f"job CPU {statistics.median(j['cpu'] for j in jobs):.3f} s, "
          f"job wall {statistics.median(j['wall'] for j in jobs):.3f} s, request wall "
          f"p50 {1000 * quantile(latencies, 50):.2f} ms, "
          f"p90 {1000 * quantile(latencies, 90):.2f} ms (wall includes the probe)")
    print(f"# {run.workload} seed={run.seed}: {len(jobs)} jobs, {len(cpu_latencies)} requests, "
          f"{len(setups)} set-ups, {time.monotonic() - measure_from:.1f} s measured")
    return m


# -- traced run --

NAMED_CALLS = {
    "modules.twists": "modules.DrinfeldModule.twist",
    "apoly.minimal_poly_over_fq.calls": "apoly.minimal_poly_over_fq",
    "fields.kelem_mul.calls": "fields.KElem.__mul__",
    "fields.kelem_inv.calls": "fields.KElem.inv",
    "fields.frobq.calls": "fields.KElem.frobq",
    "orders.colon.calls": "orders.FracIdeal.colon",
    "linalg.solve_linear.calls": "linalg.solve_linear",
    "apoly.mat_det.calls": "apoly.mat_det",
    "apoly.poly_gcd.calls": "apoly.poly_gcd",
    "skew.mul.calls": "skew.SkewPoly.__mul__",
    "skew.rgcd.calls": "skew.rgcd",
    "action.act.calls": "action.act",
}
# spans that are never nested in themselves, whose inclusive time shows
# which path a workload exercises
FOCUS_SPANS = (
    "census.twist_orbit_key",
    "orders.lin_equiv",
    "orders.integral_ideals",
    "orders.FracIdeal.colon",
    "orders.gorenstein_conductor",
    "orders.endomorphism_ring",
    "action.act",
)


def per_layer(run: Run, plan) -> dict:
    run.preflight()
    plain = run.run_job(plan)
    traced = run.run_job(plan, trace=True)
    stats: dict[str, list] = {}
    outcomes: dict[str, int] = {}
    traced_s = request_s = 0.0
    for p in traced["procs"]:
        if p["trace"] is None:
            continue
        for name, values in p["trace"]["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for key, n in p["trace"]["outcomes"].get("orders.lin_equiv", {}).items():
            outcomes[key] = outcomes.get(key, 0) + n
        traced_s += p["traced_s"]
        request_s += sum(p["latencies"])

    def calls(name: str) -> int:
        return stats.get(name, [0])[0]

    layer_calls = {layer: 0 for layer in LAYERS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (n, self_s, _, _) in stats.items():
        layer = name.split(".", 1)[0]
        layer_calls[layer] += n
        layer_self[layer] += self_s

    # work units the ratios are taken over: isomorphism classes for the
    # censuses, modules (one per request) for queries
    if plan.processes[0][0].argv[0] == "census":
        units = sum(len(sizes) for r in plan.requests for b in r.expect["classes"] for sizes in b.values())
        candidates = sum(r.expect["candidates_per_root"] * len(r.expect["classes"]) for r in plan.requests)
    else:
        units = len(plan.requests)
        candidates = 0
    le_calls = calls("orders.lin_equiv")
    yielded = stats.get("orders.integral_ideals", [0, 0.0, 0, 0.0])[2]
    m: dict[str, tuple] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (layer_calls[layer], "count")
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["untraced.self_s"] = (request_s - traced_s, "s")
    for metric, name in NAMED_CALLS.items():
        m[metric] = (calls(name), "count")
    m["census.twists_per_module"] = (calls("modules.DrinfeldModule.twist") / candidates if candidates else 0.0, "ratio")
    m["invariants.profiles_per_class"] = (calls("invariants.FrobeniusProfile.__init__") / units, "ratio")
    m["orders.end_ring_builds_per_class"] = (calls("orders.centralizer_basis") / units, "ratio")
    m["orders.lin_equiv.calls"] = (le_calls, "count")
    for key in ("yes", "no", "unknown"):
        m[f"orders.lin_equiv.{key}"] = (outcomes.get(key, 0), "count")
    decided = outcomes.get("yes", 0) + outcomes.get("no", 0)
    m["orders.lin_equiv.decided_ratio"] = (decided / le_calls if le_calls else 0.0, "ratio")
    m["orders.integral_ideals.yielded"] = (yielded, "count")
    m["orders.ideal_candidates_per_ideal"] = (
        calls("orders._closed_under_order") / yielded if yielded else 0.0, "ratio")
    # CPU, not wall: the untraced job's wall includes the speed probe
    m["trace.overhead_ratio"] = (traced["cpu"] / plain["cpu"], "ratio")

    total = request_s or 1.0
    print(f"# {run.workload} seed={run.seed}: traced wall {traced['wall']:.2f} s, "
          f"untraced {plain['wall']:.2f} s")
    for p in traced["procs"]:
        if p["trace"] is not None:
            print(f"# span records: {p['spans']} ({p['trace']['span_records']} kept, "
                  f"{p['trace']['span_records_dropped']} past the limit)")
    print("# layer        calls        self_s   share")
    for layer in sorted(LAYERS, key=lambda l: -layer_self[l]):
        print(f"# {layer:<10} {layer_calls[layer]:>12} {layer_self[layer]:>10.3f} "
              f"{100 * layer_self[layer] / total:6.1f}%")
    print(f"# {'untraced':<10} {'':>12} {request_s - traced_s:>10.3f} "
          f"{100 * (request_s - traced_s) / total:6.1f}%")
    for title, key in (("self time", 1), ("calls", 0)):
        print(f"# top spans by {title}:")
        for name, (n, self_s, _, _) in sorted(stats.items(), key=lambda kv: -kv[1][key])[:10]:
            print(f"#   {name:<48} {n:>10} {self_s:>9.3f} s")
    print("# inclusive share of the workload focus spans:")
    for name in FOCUS_SPANS:
        inclusive = stats.get(name, [0, 0.0, 0, 0.0])[3]
        print(f"#   {name:<48} {inclusive:>9.3f} s {100 * inclusive / total:6.1f}%")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join("src", "drinfeld", "cli.py")):
        print("perfbench: ./src/drinfeld not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        run = Run(args.workload, args.seed, workdir)
        plan = workloads.make_plan(args.workload, args.seed, workdir, reference)
        if args.trace:
            metrics = per_layer(run, plan)
        else:
            metrics = end_to_end(run, plan, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in run.errors:
        print(f"# FAILED {reason}")
    print(f"# failure_rate = {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
