#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
spread: the distance between the first and third quartiles of its values
(statistics.quantiles, n=4) as a share of their median, next to the bound
BENCHMARK.json fixes for it. Run from the repository root:

    python3 perfbench/spread.py --workloads archive live_tail clients --seeds 1 2 3 4 5
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            started = time.perf_counter()
            run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            wall = time.perf_counter() - started
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if run.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED ({result['failed']} failed)")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({wall:.0f} s): " + " ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            print(f"{workload:10} {name:16} median {q2:12.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.2f}  (a third: {bounds[name] / 3:.4f})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
