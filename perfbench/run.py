#!/usr/bin/env python3
"""The socyield benchmark. Builds the program from source, runs one
workload (or all of them) and checks every output.

    python3 perfbench/run.py --workload eval-table4 --seed 1 --seconds 30 --trace 0

Workloads: eval-table4, serve-hot, serve-cold, or ``all`` for the three in
one process. BENCHMARK.json lists the first two; perfbench/README.md says
why serve-cold is left out. ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` is the separate traced run that yields the per-layer
metrics. Every figure is printed by name with its unit; the last line of
standard output is the result object ``{"correct", "attempted", "failed",
"metrics"}``. A full record of the run (host, figures, spans, width
profiles) is written to perfbench/out/.

Exit status: 0 when every output checked out, 1 when any check failed
(the result line is still printed), 2 when the benchmark could not run.
"""

import argparse
import json
import os
import platform
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import procs, workloads  # noqa: E402


def host_block():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ocaml = json.loads(procs.run_measured([procs.PROBE, "host"]).out)["ocaml"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "ocaml": ocaml,
        "python": platform.python_version(),
    }


def fmt(value):
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return "{:,}".format(int(value))
    return "%.6g" % value


def report(run, host):
    mode = "traced" if run.trace else "untraced"
    print("== %s  seed %d, %d s, %s" % (run.workload, run.seed, run.seconds, mode))
    if run.trace:
        print("   host: %d CPU, %s, OCaml %s" % (host["nproc"], host["cpu_model"], host["ocaml"]))
    rows = run.shown + [
        ("error_rate", len(run.failures) / run.attempted, "fraction",
         "%d failed of %d" % (len(run.failures), run.attempted)),
    ]
    for name, value, unit, note in rows:
        print("   %-26s %14s %-8s %s" % (name, fmt(value), unit, note or ""))
    self_s = run.rec.self_times()
    if run.trace and self_s:
        print("   self time per span:")
        for name, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print("     %-24s %10.4f s" % (name, s))
    for reason in run.failures[:10]:
        print("   FAILED: %s" % reason)
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "host": host,
        "figures": [
            {"name": n, "value": v, "unit": u, "note": note} for n, v, u, note in rows
        ],
        "failures": run.failures,
        "self_s": self_s,
        "details": run.details,
        "spans": run.rec.spans,
    }
    path = os.path.join(
        procs.OUT, "%s-seed%d-trace%d.json" % (run.workload, run.seed, int(run.trace))
    )
    with open(path, "w") as f:
        json.dump(record, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    # A terminated run still stops the daemons and probes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    try:
        procs.build()
        host = host_block()
        runs = []
        for name in names:
            run = workloads.Run(name, args.seed, args.seconds, bool(args.trace))
            workloads.WORKLOADS[name](run)
            report(run, host)
            runs.append(run)
    except procs.BenchError as e:
        procs.log("perfbench: %s" % e)
        return 2
    metrics = {}
    for run in runs:
        prefix = run.workload + "/" if len(runs) > 1 else ""
        for name, (value, unit, note) in run.metrics.items():
            m = {"value": value, "unit": unit}
            if value is None:
                m["not_measured"] = note
            metrics[prefix + name] = m
    failed = sum(len(r.failures) for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
