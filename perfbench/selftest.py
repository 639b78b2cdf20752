#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at its small size under two seeds, untraced and
traced, through perfbench/run.py, and checks that

  - every operation's output checks held (correct, no failed operation);
  - the result line has exactly the contract's keys, and every metric
    name is present with its unit, in the JSON and in the printed table;
  - BENCHMARK.json, when present, declares the same workloads and metrics;
  - run.py refuses, without printing a result, in a directory that holds
    only BENCHMARK.json and perfbench/ (no hpccsim sources to build).

Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, HERE)
import run  # noqa: E402

SEEDS = (1992, 7)
errors = []


def check(cond, msg):
    if not cond:
        errors.append(msg)
        print(f"  FAIL {msg}", flush=True)


def run_bench(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(workload, seed, trace):
    what = f"{workload} seed {seed} trace {trace}"
    print(f"{what} ...", flush=True)
    out = run_bench(ROOT, workload, seed, trace)
    check(out.returncode == 0, f"{what}: exit {out.returncode}: "
          f"{out.stderr[-400:]}")
    if out.returncode != 0:
        return
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{what}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{what}: output checks failed: {out.stderr[-400:]}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{what}: attempted {result['attempted']}")
    expected = run.PER_LAYER if trace else run.END_TO_END
    check(list(result["metrics"]) == [name for name, _, _ in expected],
          f"{what}: metric names differ from the catalog")
    table = lines[:-1]
    for name, unit, _ in expected:
        got = result["metrics"].get(name, {})
        check(got.get("unit") == unit, f"{what}: {name} unit {got}")
        check(isinstance(got.get("value"), (int, float)),
              f"{what}: {name} value {got}")
        if name == "work_per_s":
            unit = run.WORKLOADS[workload] + "/s"
        check(any(line.split()[:1] == [name] and unit in line.split()[2:3]
                  for line in table),
              f"{what}: {name} not printed with unit {unit}")
    if trace:
        check(result["metrics"]["obs.spans"]["value"] > 0,
              f"{what}: traced pass recorded no spans")


def check_declaration():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        print("no BENCHMARK.json; declaration check skipped")
        return
    with open(path) as f:
        decl = json.load(f)
    check(sorted(w["name"] for w in decl["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.py")
    check([(m["name"], m["unit"], m["better"]) for m in decl["end_to_end"]]
          == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.py")
    check([(m["name"], m["unit"], m["better"]) for m in decl["per_layer"]]
          == run.PER_LAYER, "BENCHMARK.json per_layer differs from run.py")


def check_bare_directory():
    print("bare directory ...", flush=True)
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = run_bench(bare, "grid_day", 1, 0)
    check(out.returncode != 0, "bare directory: run.py exited 0")
    check('"correct"' not in out.stdout, "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    check_declaration()
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                check_run(workload, seed, trace)
    check_bare_directory()
    print(f"{len(errors)} failure(s)" if errors else "selftest OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
