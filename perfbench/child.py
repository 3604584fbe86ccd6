"""One benchmark process: set up the program, then serve CLI requests.

Usage (from the repository root): python3 perfbench/child.py JOB.json

JOB.json holds the field specs to load during set-up, the requests (each
an argv for `drinfeld.cli.main`), whether to trace, and where to write
the result and, when traced, the span records. Set-up ends when
`import drinfeld` and `field_from_json` of every field are done; its end
is written as a `time.monotonic()` reading, which the parent compares
with its own reading taken before the spawn, together with the CPU time
so far (of the main thread, the only one: see calibrate.INTERVAL_S) and
the probe's slices until then. Each request's result is its exit code, wall latency,
CPU time (the probe's own left out) and, when traced, the time its spans
cover. An untraced process runs the machine-speed probe (calibrate.py)
while it serves its requests, and reports the probe's slices and CPU
seconds.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

from calibrate import Probe


def _serve(cli_main, argv: list[str]):
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # a crash is a failed request, not a dead benchmark
        traceback.print_exc()
        return "exception"


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    probe = Probe()
    if not job["trace"]:
        probe.start()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import drinfeld  # noqa: F401  (set-up includes the package import)
    from drinfeld.cli import main as cli_main
    from drinfeld.serialize import field_from_json

    for spec in job["fields"]:
        field_from_json(spec)
    setup_done = time.monotonic()
    setup_cpu = time.thread_time() - probe.cpu_s
    setup_probe = [probe.slices, probe.cpu_s]

    tracer = None
    if job["trace"]:
        from spans import RECORD_COLUMNS, Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    for req in job["requests"]:
        cpu = time.thread_time()
        probe_cpu = probe.cpu_s
        if tracer is None:
            start = time.perf_counter()
            rc = _serve(cli_main, req["argv"])
            latency = time.perf_counter() - start
            traced = None
        else:
            start = tracer.begin_request(req["id"])
            rc = _serve(cli_main, req["argv"])
            latency = time.perf_counter() - start
            traced = tracer.end_request("request." + req["argv"][0], start)
        cpu = time.thread_time() - cpu - (probe.cpu_s - probe_cpu)
        results.append([rc, latency, cpu, traced])

    probe.stop()
    out = {"setup_done": setup_done, "setup_cpu": setup_cpu, "setup_probe": setup_probe,
           "requests": results, "probe": {"slices": probe.slices, "cpu_s": probe.cpu_s}}
    if tracer is not None:
        out["trace"] = tracer.summary()
        with open(job["spans_out"], "w", encoding="utf-8") as fh:
            json.dump({"columns": RECORD_COLUMNS, "records": tracer.records,
                       "dropped": tracer.dropped}, fh)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
