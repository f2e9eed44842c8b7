#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, gate, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which configures the simulator
from the parent directory) into $CARGO_TARGET_DIR or .bench_build, runs
perfbench_measure, applies the correctness gate and prints one JSON object as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. Build output and a human-readable summary go to
stderr. See perfbench/README.md for the workloads, metrics and gate.

    python3 perfbench/run.py --record     rewrite perfbench/expected.json
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("imatmult-local", "plytrace-thrash", "serving-zipf", "paper-sweep")
DEFAULT_SEED = 1  # the serving base client seed expected.json records


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build():
    """Configure and build perfbench_measure; returns its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("simulator sources not found next to perfbench/ (%s missing)" % needed)
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "--target", "perfbench_measure", "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench_measure")


def measure(binary, *args):
    proc = subprocess.run([binary] + [str(a) for a in args], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        fail("perfbench_measure exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def same(a, b):
    """Exact equality of parsed simulated results (null stands for NaN)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def gate(raw, expected):
    """Returns (attempted, failed, notes). Every measured, canary and traced unit is
    one attempt; it fails on app verification, on differing from the first measured
    unit (same inputs), on differing from expected.json when its inputs are the
    recorded ones, or, for traced units, on differing from the untraced pass."""
    workload = raw["workload"]
    notes = []
    attempted = failed = 0
    first = raw["units"][0]["sims"] if raw["units"] else None
    recorded = workload != "serving-zipf" or int(raw["seed"]) == DEFAULT_SEED
    want = expected.get(workload, {}).get("sims")
    checks = [("unit", u, True) for u in raw["units"]]
    checks += [("canary", u, False) for u in raw["canary"]]
    checks += [("traced", u, True) for u in raw["traced"]]
    for kind, unit, same_inputs in checks:
        attempted += 1
        problems = []
        if not unit["ok"]:
            problems.append("app verification failed")
        if same_inputs and not same(unit["sims"], first):
            problems.append("simulated results differ from the first run of the set")
        if (kind == "canary" or recorded) and not same(unit["sims"], want):
            problems.append("simulated results differ from expected.json")
        if problems:
            failed += 1
            notes.append("%s: %s" % (kind, "; ".join(problems)))
    return attempted, failed, notes


def end_to_end(raw, expected, ok_frac):
    units = raw["units"]
    refs = units[0]["refs"]
    if raw["workload"] == "paper-sweep":
        # RunSweep does not expose reference counts; the sweep's are exact and
        # recorded with its simulated results, which the gate checks every run.
        refs = expected["paper-sweep"]["refs_all"]
    # Host time of a unit: every input's fastest run, summed over the unit's inputs.
    # Interference from other tenants of a shared host only ever adds time, and
    # swings run times by up to 2x within seconds (README.md, "Host noise"), which
    # a median over one run cannot absorb.
    runs = [u["run_wall_s"] for u in units]
    wall = sum(min(times) for times in zip(*runs))
    med = lambda key: statistics.median(u[key] for u in units)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(raw["setup_s"]),
        "refs_per_sec": refs / wall,
        "requests_per_sec": units[0]["requests"] / wall,
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_user_s": med("sim_user_s"),
        "sim_system_s": med("sim_system_s"),
        "local_fraction": med("local_fraction"),
        "sim_p50_ms": med("sim_p50_ms"),
        "sim_p99_ms": med("sim_p99_ms"),
        "ok_frac": ok_frac,
    }


def per_layer(raw, expected):
    layers = dict(raw["layers"])
    if raw["workload"] == "paper-sweep":
        layers["numa.faults_per_kref"] = (
            layers.pop("numa.faults") * 1e3 / expected["paper-sweep"]["refs_numa"])
    return layers


def record():
    """Rewrite expected.json from one run of each workload at the default seed."""
    binary = build()
    expected = {}
    for workload in WORKLOADS:
        raw = measure(binary, "--workload", workload, "--seed", DEFAULT_SEED,
                    "--seconds", 0, "--trace", 0)
        unit = raw["units"][0]
        if not unit["ok"]:
            fail("%s failed app verification; nothing recorded" % workload)
        expected[workload] = {"seed": DEFAULT_SEED, "sims": unit["sims"]}
        print("recorded %s" % workload, file=sys.stderr)
    expected["paper-sweep"].update(measure(binary, "--workload", "paper-sweep", "--count-refs"))
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                        help="expected simulated results (default perfbench/expected.json)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json instead of measuring")
    args = parser.parse_args()
    if args.record:
        record()
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if os.environ.get("ACE_TLB") is not None or os.environ.get("ACE_TLB_VERIFY") is not None:
        fail("refusing to run with ACE_TLB or ACE_TLB_VERIFY set")
    with open(args.expected) as f:
        expected = json.load(f)
    declared = load_benchmark()

    binary = build()
    raw = measure(binary, "--workload", args.workload, "--seed", args.seed,
                "--seconds", args.seconds, "--trace", args.trace)
    attempted, failed, notes = gate(raw, expected)
    if args.trace:
        metrics, spec = per_layer(raw, expected), declared["per_layer"]
    else:
        metrics = end_to_end(raw, expected, 1.0 - failed / attempted)
        spec = declared["end_to_end"]
    out = {}
    for m in spec:
        value = metrics.get(m["name"])
        if value is None or not math.isfinite(value):
            fail("metric %s was not measured" % m["name"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}

    summary = {"workload": args.workload, "seed": args.seed, "mode": raw["mode"],
               "units": len(raw["units"]), "gate": notes or "ok"}
    print(json.dumps(summary), file=sys.stderr)
    for name, m in out.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))


if __name__ == "__main__":
    main()
