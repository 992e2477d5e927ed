"""One workload in one fresh single-threaded process.

``run.py`` starts this file once per measurement.  Modes:

* ``setup``: import the program, build the inputs, report the set-up time
  and exit where the first timed operation would start;
* ``timed``: the closed loop with one caller, whole passes over the
  operation list until ``--seconds`` have passed, every answer checked;
* ``trace``: an uninstrumented pass, a span pass, a scalar counting pass
  and a second uninstrumented pass, reporting the per-layer metrics and
  the two instruments' overhead against the uninstrumented passes.

The last line of standard output is one JSON object for ``run.py``.
"""

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time

import oracle
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def run_pass(ops, tracer=None):
    """Execute every operation once; return latencies and failure lists."""
    latencies, known, unexpected = [], [], []
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a raising operation is a failed one
            latencies.append(time.perf_counter() - start)
            unexpected.append(f"{op.name}: raised {exc!r}")
            continue
        latencies.append(time.perf_counter() - start)
        try:
            op.check(op.answer(result))
        except oracle.WrongAnswer as exc:
            if op.known_fault:
                known.append(op.name)
            else:
                unexpected.append(f"{op.name}: {exc}")
        except Exception as exc:  # an answer the check cannot even read
            unexpected.append(f"{op.name}: unreadable answer {exc!r}")
    return latencies, known, unexpected


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


MIN_TIMED_OPS = 100


def timed(ops, seconds):
    """Whole passes until the time is up and at least 100 operations ran."""
    latencies, known, unexpected, passes = [], [], [], 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(latencies) < MIN_TIMED_OPS:
        lat, kn, unx = run_pass(ops)
        latencies += lat
        known += kn
        unexpected += unx
        passes += 1
    ordered = sorted(latencies)
    return {
        "attempted": len(latencies),
        "failed": len(known) + len(unexpected),
        "unexpected": unexpected[:10],
        "passes": passes,
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": percentile(ordered, 0.5) * 1000,
        "latency_p90_ms": percentile(ordered, 0.9) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def traced(ops, trace_path):
    plain, known, unexpected = run_pass(ops)
    spans = tracing.SpanTracer()
    spans.install()
    try:
        span_lat, kn, unx = run_pass(ops, spans)
    finally:
        spans.uninstall()
    known += kn
    unexpected += unx
    counter = tracing.ScalarCounter()
    counter.install()
    try:
        count_lat, kn, unx = run_pass(ops)
    finally:
        counter.uninstall()
    known += kn
    unexpected += unx
    plain_after, kn, unx = run_pass(ops)
    known += kn
    unexpected += unx
    metrics = spans.metrics()
    metrics.update(counter.metrics())
    # the uninstrumented passes before and after bracket any drift
    base = (sum(plain) + sum(plain_after)) / 2
    metrics["trace.span_overhead_pct"] = (
        100 * (sum(span_lat) / base - 1), "%")
    metrics["trace.count_overhead_pct"] = (
        100 * (sum(count_lat) / base - 1), "%")
    with open(trace_path, "w", encoding="utf-8") as handle:
        spans.dump(handle)
    return {
        "attempted": 4 * len(ops),
        "failed": len(known) + len(unexpected),
        "unexpected": unexpected[:10],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "spans": len(spans.span_start),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tvspaces", "__init__.py")):
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import tvspaces
    if not os.path.abspath(tvspaces.__file__).startswith(SRC + os.sep):
        print(f"imported tvspaces from {tvspaces.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            report = {}
        elif args.mode == "timed":
            report = timed(ops, args.seconds)
        else:
            report = traced(ops, os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["setup_s"] = setup_s
    report["ops_per_pass"] = len(ops)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
