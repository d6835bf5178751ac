#!/usr/bin/env python3
"""Steadiness runs and baseline recording for perfbench.

Runs two sets of timed runs (--trace 0), one after the other: in each set
every workload once per seed 1-10, at BENCHMARK.json's run_seconds. For
each set it prints every end-to-end metric's median and spread (the
distance between the first and third quartile as a share of the median),
then each metric's change from the first set's median to the second's,
against the metric's bound. Last, one traced run per workload (seed 1)
gives the per-layer split and the tracing overhead. With --out it writes
everything to a results file.

    python3 perfbench/steady.py --out perfbench/results.json

Run from the root of a checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)
SETS = 2
TRACE_SEED = 1


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("%s seed %d failed (exit %d):\n%s%s" % (workload, seed, p.returncode, p.stdout[-2000:], p.stderr[-2000:]))
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit("%s seed %d: outputs wrong" % (workload, seed))
    return res, lines[:-1], wall


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def timed_set(workload, seconds, bounds):
    vals, units = {}, {}
    for seed in SEEDS:
        res, _, wall = run(workload, seed, seconds, 0)
        print("%s seed %d: %.1fs" % (workload, seed, wall), flush=True)
        for k, v in res["metrics"].items():
            vals.setdefault(k, []).append(v["value"])
            units[k] = v["unit"]
    out = {k: dict(summarize(v), unit=units[k]) for k, v in sorted(vals.items())}
    for k, s in out.items():
        print("  %-20s median %14.4f %-4s spread %.4f (bound %.2f)" % (k, s["median"], s["unit"], s["spread"], bounds[k]),
              flush=True)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="", help="results file to write")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    out = {"seconds": seconds, "seeds": list(SEEDS), "date": time.strftime("%Y-%m-%d"),
           "machine": "%s, %d CPUs" % (platform.machine(), os.cpu_count()), "sets": [], "agreement": {}, "traced": {}}
    for i in range(SETS):
        print("set %d" % (i + 1), flush=True)
        out["sets"].append({wl: timed_set(wl, seconds, bounds) for wl in workloads})

    # The second set's median may be worse than the first's by at most the
    # metric's bound.
    first, second = out["sets"][0], out["sets"][-1]
    for wl in workloads:
        out["agreement"][wl] = {}
        for k in first[wl]:
            m1, m2 = first[wl][k]["median"], second[wl][k]["median"]
            worse = (m2 - m1) / m1 if better[k] == "lower" else (m1 - m2) / m1
            ok = worse <= bounds[k]
            out["agreement"][wl][k] = {"worse_by": worse, "bound": bounds[k], "within": ok}
            print("%-12s %-20s second set worse by %+.4f (bound %.2f)%s" % (wl, k, worse, bounds[k], "" if ok else "  OUT"),
                  flush=True)

    for wl in workloads:
        res, lines, _ = run(wl, TRACE_SEED, seconds, 1)
        print("%s traced: trace.overhead_frac %.4f" % (wl, res["metrics"]["trace.overhead_frac"]["value"]), flush=True)
        out["traced"][wl] = {"seed": TRACE_SEED, "per_layer": res["metrics"],
                             "notes": [l for l in lines if l.startswith("note")]}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
