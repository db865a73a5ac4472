#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds N] [--first S] [--trace 0|1]
                                [--workload NAME ...]

Run from the repository root. Reads BENCHMARK.json, runs its command once
per (workload, seed) with the recorded run length, and prints for every
metric the median of the runs and the distance between their first and
third quartile (statistics.quantiles, n=4) as a share of the median,
beside the metric's bound and a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workload", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for name in names:
        values = {}
        for seed in range(args.first, args.first + args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} failed")
                ok = False
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {name} ({args.seeds} seeds)")
        for k, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = float("nan")
            bound = bounds.get(k)
            note = ""
            if bound is not None:
                note = f"bound {bound:.3f} third {bound / 3:.3f}"
                if k != "setup_s" and spread > bound:
                    note += "  OVER BOUND"
                    ok = False
            print(f"  {k:<30} median {med:<14.6g} spread {spread:.4f}  {note}")
            print("    " + " ".join(f"{v:.4g}" for v in vs))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
