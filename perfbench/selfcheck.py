#!/usr/bin/env python3
"""Fast check of the benchmark's output contract at tiny input sizes.

Checks BENCHMARK.json's own limits, then runs every workload untraced
and traced with `--scale tiny` and validates the last stdout line: exactly
the keys correct/attempted/failed/metrics, every end-to-end (untraced) or
per-layer (traced) metric present with its declared unit and a finite
value, end-to-end values nonzero, and no failed operation. Last, it runs
the command in a directory holding only BENCHMARK.json and the benchmark's
files, where it must fail without printing a result. Run from the
repository root:

    python3 perfbench/selfcheck.py
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

problems = []


def check(ok, what):
    if not ok:
        problems.append(what)
    return ok


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= len(spec["command"]) <= 32, "command length")
    check(all(isinstance(a, str) and len(a) <= 200 and not a.startswith("/")
              and ".." not in a.split("/") for a in spec["command"]), "command strings")
    check(1 <= len(spec["paths"]) <= 16, "paths count")
    check(all(PATH.match(p) and ".." not in p.split("/") for p in spec["paths"]), "paths")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    check(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    check(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"}, f"workload {w} keys")
        check("\n" not in w["why"] and len(w["why"]) <= 200, f"workload {w['name']} why")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"{m['name']} keys")
        check(0 < m["bound"] <= 0.25, f"{m['name']} bound")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"{m['name']} keys")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]), f"{m['name']} unit")
        check(m["better"] in ("lower", "higher"), f"{m['name']} better")
        names.append(m["name"])
    check(all(NAME.match(n) for n in names), "names")
    check(len(names) == len(set(names)), "names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has unit s, lower is better, and the largest bound")


def check_run(spec, workload, trace):
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--scale", "tiny"]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
    tag = f"{workload} --trace {trace}"
    check(run.returncode == 0, f"{tag}: exit code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not check(lines, f"{tag}: no output"):
        return
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        check(False, f"{tag}: last line is not JSON: {e}")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys")
    check(result.get("correct") is True, f"{tag}: not correct")
    check(type(result.get("attempted")) is int and result["attempted"] >= 1,
          f"{tag}: attempted")
    check(type(result.get("failed")) is int and result["failed"] == 0, f"{tag}: failed")
    metrics = result.get("metrics", {})
    check(set(metrics) == {m["name"] for m in declared}, f"{tag}: metric names "
          f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"], {})
        check(set(got) == {"value", "unit"}, f"{tag}: {m['name']} keys")
        value = got.get("value")
        check(isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value), f"{tag}: {m['name']} value {value!r}")
        check(got.get("unit") == m["unit"], f"{tag}: {m['name']} unit")
        if not trace:
            check(value != 0, f"{tag}: {m['name']} is 0")
    print(f"{tag}: {len(metrics)} metrics, attempted {result.get('attempted')}", flush=True)


def check_bare(spec):
    bare = os.path.join(".bench_work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(p, os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    run = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=180, env=env)
    check(run.returncode != 0, "bare directory: exit code 0")
    check(run.stdout.strip() == "", "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit code {run.returncode}", flush=True)


def main():
    spec = json.load(open("BENCHMARK.json"))
    check(os.path.getsize("BENCHMARK.json") <= 64 * 1024, "BENCHMARK.json size")
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_bare(spec)
    for p in problems:
        print(f"FAILED: {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
