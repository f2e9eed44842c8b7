#!/usr/bin/env python3
"""The benchmark's own checks. Run from the repository root:

    python3 perfbench/selftest.py

1. BENCHMARK.json is well formed (keys, names, units, bounds).
2. Every workload, traced and untraced, emits each declared metric with its
   declared unit and passes the correctness gate.
3. A deliberately perturbed expectation is caught by the gate on every workload.
4. A run with ACE_TLB_VERIFY set is refused without printing a result.

Exits 0 when every check passes; prints each failure and exits 1 otherwise.
"""

import copy
import json
import math
import os
import re
import subprocess
import sys

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, file=sys.stderr)
    if not ok:
        failures.append(what)


def bench(workload, trace, expected_path=None, env=None):
    """Runs run.py once with a single measured unit; returns (exit code, result)."""
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(run.DEFAULT_SEED), "--seconds", "0", "--trace", str(trace)]
    if expected_path:
        cmd += ["--expected", expected_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def check_declaration(declared):
    check(set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                            "per_layer"}, "BENCHMARK.json has exactly the expected keys")
    check(isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60,
          "run_seconds is a whole number in [1, 60]")
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    for name in names:
        check(NAME.match(name) is not None, "name %r uses only allowed characters" % name)
    check(len(names) == len(set(names)), "every name is used once")
    for m in declared["end_to_end"] + declared["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, "unit %r of %s is valid" % (m["unit"], m["name"]))
        check(m["better"] in ("higher", "lower"), "%s says which way is better" % m["name"])
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values()), "every bound is in (0, 0.25]")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(bounds.values()),
          "setup_s is declared in s, lower is better, with the largest bound")


def check_emits(declared, workload, trace):
    code, result = bench(workload, trace)
    label = "%s --trace %d" % (workload, trace)
    check(code == 0 and result is not None, label + " exits 0 and prints a result")
    if result is None:
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          label + " result has exactly the expected keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          label + " passes the correctness gate")
    spec = declared["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in spec},
          label + " emits exactly the declared metrics")
    for m in spec:
        got = result["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float))
              and math.isfinite(got["value"]),
              "%s: %s is a finite number in %s" % (label, m["name"], m["unit"]))


def check_perturbed(workload, scratch):
    with open(os.path.join(run.HERE, "expected.json")) as f:
        expected = json.load(f)
    perturbed = copy.deepcopy(expected)
    sim = perturbed[workload]["sims"][0]
    key = "page_faults"
    sim[key] += 1
    path = os.path.join(scratch, "perturbed-%s.json" % workload)
    with open(path, "w") as f:
        json.dump(perturbed, f)
    code, result = bench(workload, 0, expected_path=path)
    check(code == 0 and result is not None and not result["correct"] and result["failed"] >= 1,
          "%s: expected.json with %s off by one is caught by the gate" % (workload, key))
    os.remove(path)


def main():
    declared = run.load_benchmark()
    check_declaration(declared)
    scratch = run.build_dir()
    run.build()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_emits(declared, workload, trace)
        check_perturbed(workload, scratch)
    env = dict(os.environ, ACE_TLB_VERIFY="1")
    code, result = bench("serving-zipf", 0, env=env)
    check(code != 0 and result is None, "a run with ACE_TLB_VERIFY set is refused")
    if failures:
        print("%d check(s) failed" % len(failures), file=sys.stderr)
        sys.exit(1)
    print("all checks passed", file=sys.stderr)


if __name__ == "__main__":
    main()
