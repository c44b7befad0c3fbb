#!/usr/bin/env python3
"""Steadiness and A/B tool for the repository benchmark.

Spread of one build (run from the root of a checkout):

    python3 benchmark/steady.py --workload tpcc_wal --runs 10 --seconds 20

runs the workload once per seed (1..N unless --seeds is given) and prints,
for each metric, the median, the first and third quartiles
(statistics.quantiles(n=4)), the IQR as a share of the median, and the
metric's bound from BENCHMARK.json. A spread at or above a third of the
bound is flagged. --workload all runs every workload in BENCHMARK.json.

    python3 benchmark/steady.py --workload all --runs 10 --sets 2

makes two such sets of the same build (set k uses seeds k*N+1..(k+1)*N) and
then prints, per metric, each set's median and how much worse the second
median is than the first, as a share of the first, against the bound.

Two builds:

    python3 benchmark/steady.py --workload tpcc_wal --runs 10 \
        --compare ../parent-checkout ../change-checkout

alternates the two checkouts (A B, B A, A B, ...) with the same seed in each
pair, then prints each side's median and quartiles, the change in the
median, and how many pairs the second side won.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("benchmark", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("no result from %s (exit %d)" % (" ".join(cmd), res.returncode))
    result = json.loads(lines[-1])
    result["exit"] = res.returncode
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(metric):
    return metric.get("better", "higher")


def spread_report(spec, workload, results, trace):
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    fails = [r["failed"] / r["attempted"] for r in results]
    print("\n%s: %d runs, correct in %d, failed share %s" % (
        workload, len(results), sum(1 for r in results if r["correct"]),
        sorted(set("%.6g" % f for f in fails))))
    print("%-36s %14s %14s %14s %9s %7s" % ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    worst_ok = True
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if not vals:
            continue
        q1, med, q3 = quartiles(vals)
        rel = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and rel >= bound / 3:
            flag = "  <-- spread >= bound/3"
            worst_ok = False
        print("%-36s %14.6g %14.6g %14.6g %8.2f%% %7s%s" % (
            name, med, q1, q3, 100 * rel, "" if bound is None else "%g" % bound, flag))
    return worst_ok


def sets_report(spec, workload, sets):
    first, second = sets[0], sets[-1]
    shares = [sorted(set("%.6g" % (r["failed"] / r["attempted"]) for r in rs)) for rs in sets]
    print("\n%s: %d sets of %d runs; failed share per set %s" % (
        workload, len(sets), len(first), shares))
    print("%-16s %14s %14s %10s %7s" % ("metric", "set 1 median", "set 2 median", "worse by", "bound"))
    ok = len(set(map(tuple, shares))) == 1
    for m in spec["end_to_end"]:
        n = m["name"]
        a = statistics.median([r["metrics"][n]["value"] for r in first])
        b = statistics.median([r["metrics"][n]["value"] for r in second])
        worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
        flag = "" if worse <= m["bound"] else "  <-- beyond bound"
        ok = ok and not flag
        print("%-16s %14.6g %14.6g %+9.2f%% %7g%s" % (n, a, b, 100 * worse, m["bound"], flag))
    return ok


def compare(spec, args):
    a_root, b_root = [os.path.abspath(d) for d in args.compare]
    names = [m for m in spec["end_to_end"]]
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    for wl in workloads:
        side = {"A": [], "B": []}
        for i, seed in enumerate(seeds(args)):
            order = [("A", a_root), ("B", b_root)] if i % 2 == 0 else [("B", b_root), ("A", a_root)]
            for label, root in order:
                side[label].append(run_once(root, wl, seed, args.seconds, 0))
        print("\n%s: A=%s B=%s, %d pairs" % (wl, a_root, b_root, len(side["A"])))
        print("%-16s %12s %12s %12s %12s %9s %6s" % ("metric", "A median", "A iqr", "B median", "B iqr", "change", "B wins"))
        for m in names:
            n = m["name"]
            av = [r["metrics"][n]["value"] for r in side["A"]]
            bv = [r["metrics"][n]["value"] for r in side["B"]]
            aq1, amed, aq3 = quartiles(av)
            bq1, bmed, bq3 = quartiles(bv)
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(1 for x, y in zip(av, bv) if sign * (y - x) > 0)
            print("%-16s %12.6g %12.6g %12.6g %12.6g %+8.2f%% %3d/%d" % (
                n, amed, aq3 - aq1, bmed, bq3 - bq1, 100 * (bmed - amed) / amed if amed else 0,
                wins, len(av)))


def seeds(args):
    if args.seeds:
        return [int(s) for s in args.seeds.split(",")]
    return list(range(1, args.runs + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seeds", help="comma-separated seeds (default 1..runs)")
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--sets", type=int, default=1, help="sets of --runs runs (untraced)")
    p.add_argument("--compare", nargs=2, metavar=("A_CHECKOUT", "B_CHECKOUT"))
    args = p.parse_args()
    spec = load_spec(ROOT)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        compare(spec, args)
        return 0
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    steady = True
    for wl in workloads:
        sets = []
        for k in range(args.sets):
            set_seeds = [s + k * len(seeds(args)) for s in seeds(args)]
            sets.append([run_once(ROOT, wl, s, args.seconds, args.trace) for s in set_seeds])
            steady = spread_report(spec, wl, sets[-1], args.trace == 1) and steady
        if len(sets) > 1 and args.trace == 0:
            steady = sets_report(spec, wl, sets) and steady
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
