#!/usr/bin/env python3
"""Records a trajectory point of the benchmark.

Runs the command from BENCHMARK.json --runs times per workload, each time
with another --seed, and prints for every end-to-end metric its median,
quartiles and spread (interquartile distance as a share of the median)
against the metric's bound. With --out it also stores every run's values
and the summary as JSON; with --traced it adds one traced run per
workload. Run it from the root of the repository:

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    took = time.monotonic() - start
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1]), took


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", default="", help="write the runs and summary here as JSON")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"runs_per_workload": args.runs, "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res, took = run(bench["command"], name, seed, bench["run_seconds"], 0)
            runs.append({"seed": seed, "took_s": took, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{name} seed {seed}: {took:.1f}s " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        entry = {"runs": runs, "summary": {}}
        for metric in bounds:
            values = [r["metrics"][metric] for r in runs]
            s = summary(values) if len(values) > 1 else {"median": values[0]}
            entry["summary"][metric] = s
            if "spread" in s:
                flag = "" if metric == "setup_s" or s["spread"] <= bounds[metric] / 3 else "  <-- above a third of the bound"
                print(f"  {name} {metric}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.4f} (bound {bounds[metric]}){flag}", flush=True)
        if args.traced:
            res, took = run(bench["command"], name, args.first_seed, bench["run_seconds"], 1)
            entry["traced"] = {"seed": args.first_seed, "took_s": took,
                               "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
        point["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(point, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
