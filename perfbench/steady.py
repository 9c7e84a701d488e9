#!/usr/bin/env python3
"""Runs the benchmark repeatedly and summarises how steady each metric is.

From the repository root:

    python3 perfbench/steady.py --seeds 1-10                # every workload
    python3 perfbench/steady.py --workloads churn-ortho --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --json .bench_build/steadiness.json

For each workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4), the quartile spread and
the (max - min) spread as shares of the median, and the bound from
BENCHMARK.json. A spread at or above a third of the bound is flagged;
setup_s is exempt from the spread rule. The run's wall time is listed too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{proc.stdout}")
    return {name: m["value"] for name, m in res["metrics"].items()}, wall


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_share": (q3 - q1) / med if med else float("nan"),
        "range_share": (max(values) - min(values)) / med if med else float("nan"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma-separated; default every workload in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--json", default="", help="also write raw values and summaries here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    raw = {w: {"seeds": seeds, "values": {}, "wall_s": []} for w in workloads}
    for seed in seeds:  # interleave workloads so slow drift hits all of them alike
        for w in workloads:
            values, wall = run_once(bench, w, seed)
            raw[w]["wall_s"].append(round(wall, 1))
            for name, v in values.items():
                raw[w]["values"].setdefault(name, []).append(v)
            print(f"{w} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)

    report = {}
    for w in workloads:
        print(f"\n### {w}\n")
        print(f"{len(seeds)} runs, seeds {args.seeds}; run wall time {min(raw[w]['wall_s'])}-{max(raw[w]['wall_s'])} s\n")
        print("| metric | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound | |")
        print("|---|---|---|---|---|---|---|---|")
        report[w] = {"raw": raw[w], "summary": {}}
        for name, values in raw[w]["values"].items():
            if len(values) < 2:
                continue
            s = summarise(values)
            report[w]["summary"][name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["iqr_share"] >= bound / 3:
                flag = "spread >= bound/3"
            print(f"| {name} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} | "
                  f"{s['iqr_share']:.2%} | {s['range_share']:.2%} | {bound if bound is not None else '-'} | {flag} |")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
