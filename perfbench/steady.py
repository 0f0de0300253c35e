#!/usr/bin/env python3
"""Steadiness tooling for the benchmark.

    python3 perfbench/steady.py run --workload W [--runs N] [--seconds S]
        [--first-seed K] [--trace 0|1] [--out FILE]
        Runs perfbench/run.py N times with seeds K..K+N-1 and prints the
        median, quartiles and spread (IQR / median) of every metric. With
        --out, saves the raw results as JSON. Fails if a run fails or
        reports `correct` false.

    python3 perfbench/steady.py compare A.json B.json
        Compares two saved sets of runs of one workload against the bounds
        in BENCHMARK.json: every run must be correct, each spread must stay
        within its bound (setup_s excepted, see SPREAD_EXEMPT), B's median
        may not be worse than A's by more than the bound, and the failed
        share must be identical.

Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys

# setup_s times one cold set-up per run, so a run cannot average it over
# more work; its run-to-run spread follows the machine's CPU speed. Only
# its median is held to the bound (README.md, "Steadiness tooling").
SPREAD_EXEMPT = ("setup_s",)


def load_bounds():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return bench, {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def run_once(workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = r.stdout.decode().strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit("run failed: workload %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("run incorrect: workload %s seed %d" % (workload, seed))
    return result


def summarize(results):
    """name -> (q1, median, q3, spread)."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        out[name] = (q1, med, q3, spread)
    return out


def print_summary(results, bounds):
    print("%-34s %12s %12s %12s %8s %8s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, (q1, med, q3, spread) in summarize(results).items():
        bound = bounds.get(name, {}).get("bound")
        print("%-34s %12.4f %12.4f %12.4f %7.1f%% %8s" % (
            name, q1, med, q3, 100 * spread, "-" if bound is None else "%.0f%%" % (100 * bound)))
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    correct = all(r["correct"] for r in results)
    print("runs %d, correct %s, failed %d of %d" % (len(results), correct, failed, attempted))


def cmd_run(args):
    _, bounds = load_bounds()
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        results.append(run_once(args.workload, seed, args.seconds, args.trace))
        print("seed %d done" % seed, file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "results": results}, f)
    print_summary(results, bounds)
    return 0


def cmd_compare(args):
    bench, bounds = load_bounds()
    sets = []
    for path in (args.a, args.b):
        with open(path) as f:
            sets.append(json.load(f)["results"])
    ok = True
    for label, results in zip("AB", sets):
        if not all(r["correct"] for r in results):
            print("set %s has a run with correct false" % label)
            ok = False
    a, b = summarize(sets[0]), summarize(sets[1])
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        if name not in a or name not in b:
            print("%s: missing from a set" % name)
            ok = False
            continue
        for label, s in (("A", a), ("B", b)):
            if s[name][3] > bound:
                exempt = name in SPREAD_EXEMPT
                print("%s: spread of set %s %.1f%% exceeds bound %.0f%%%s" % (
                    name, label, 100 * s[name][3], 100 * bound,
                    " (median only)" if exempt else ""))
                ok = ok and exempt
        ma, mb = a[name][1], b[name][1]
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        status = "ok" if worse <= bound else "WORSE"
        ok = ok and worse <= bound
        print("%-24s A %12.4f  B %12.4f  change %+6.1f%%  bound %3.0f%%  %s" % (
            name, ma, mb, 100 * worse, 100 * bound, status))
    shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
    if shares[0] != shares[1]:
        print("failed share differs: %r vs %r" % tuple(shares))
        ok = False
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seconds", type=float)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--trace", type=int, default=0, choices=(0, 1))
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args()
    if args.cmd == "run":
        if args.seconds is None:
            args.seconds = load_bounds()[0]["run_seconds"]
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
