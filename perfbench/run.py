"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload dense-kernel --seed 1 --seconds 20 \
        --trace 0

With ``--trace 0`` it starts the workload in fresh processes, one after
another: four that stop after set-up and one that runs the timed closed
loop, and reports the end-to-end metrics (``setup_s`` is the median of the
five set-ups).  With ``--trace 1`` it starts one traced process and reports
the per-layer metrics.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("dense-kernel", "search-sweep", "cli-session")
SETUP_ONLY_RUNS = 4
CHILD_TIMEOUT_S = 170


class ChildFailed(Exception):
    pass


def spawn(args, mode, deadline):
    """Run worker.py in a fresh process and return its JSON report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} process printed nothing")
    return json.loads(lines[-1])


def compile_sources():
    """Build step: byte-compile the program and the benchmark once."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   check=True, capture_output=True, timeout=120)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tvspaces", "__init__.py")):
        print(f"error: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        compile_sources()
        if args.trace:
            report = spawn(args, "trace", deadline)
            metrics = report["metrics"]
            print(f"traced pass recorded {report['spans']} spans",
                  file=sys.stderr)
        else:
            setups = [spawn(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_ONLY_RUNS)]
            report = spawn(args, "timed", deadline)
            setups.append(report["setup_s"])
            metrics = {
                "throughput_ops_s": {"value": report["throughput_ops_s"],
                                     "unit": "1/s"},
                "latency_p50_ms": {"value": report["latency_p50_ms"],
                                   "unit": "ms"},
                "latency_p90_ms": {"value": report["latency_p90_ms"],
                                   "unit": "ms"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            }
            print(f"{report['passes']} passes of {report['ops_per_pass']} "
                  f"operations", file=sys.stderr)
    except (ChildFailed, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in report["unexpected"]:
        print(f"wrong answer: {line}", file=sys.stderr)
    print(json.dumps({"correct": not report["unexpected"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
