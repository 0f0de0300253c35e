#!/usr/bin/env python3
"""Builds and runs the steady-state benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds the rollview library and the driver from
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs one measurement. The driver's last
stdout line is the result object; it is passed through unchanged. WAL files
go to .bench_run/<run>/ and are removed afterwards; traces (--trace 1) are
kept in .bench_run/traces/.

Extra driver flags (diagnostics, not part of a measured run) may follow
`--`, e.g. `-- --closed-loop live`.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("churn_durable", "star_skew")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=log, stderr=log)
        if r.returncode != 0:
            return None
    r = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", "3"],
        stdout=subprocess.DEVNULL, stderr=log)
    if r.returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench_driver")


def main():
    argv = sys.argv[1:]
    extra = []
    if "--" in argv:
        extra = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    driver = build(build_dir)
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    run_dir = os.path.join(root, ".bench_run",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir,
           "--trace-dir", os.path.join(root, ".bench_run", "traces")] + extra
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    out = r.stdout.decode()
    if r.returncode != 0 or not out.strip():
        sys.stderr.write(out)
        print("perfbench: driver exited with %d" % r.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
