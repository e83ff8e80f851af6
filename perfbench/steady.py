#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every end-to-end metric of a workload this prints the median of the
runs and the interquartile distance as a share of the median, computed with
statistics.quantiles(values, n=4), next to the metric's bound from
BENCHMARK.json. A spread above a third of the bound is flagged.

    python3 perfbench/steady.py --workload fleet --runs 5
    python3 perfbench/steady.py --workload invoke --runs 10 --first-seed 100

Run it from the repository root; it runs the command that BENCHMARK.json
declares, for BENCHMARK.json's run_seconds unless --seconds is given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    declared = bench["end_to_end"]

    values = {m["name"]: [] for m in declared}
    for i in range(opts.runs):
        seed = opts.first_seed + i
        result = run_once(bench["command"], opts.workload, seed, seconds)
        if not result["correct"]:
            sys.exit(f"seed {seed}: output checks failed")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              flush=True)

    worst = 0.0
    for m in declared:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med
        worst = max(worst, spread / m["bound"])
        flag = "ok" if spread <= m["bound"] / 3 else ("WIDE" if spread <= m["bound"] else "OVER")
        print(f"{m['name']:<20} median={med:<14.6g} spread={spread:7.4f} "
              f"bound={m['bound']} {flag}")
    print(f"widest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
