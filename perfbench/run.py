#!/usr/bin/env python3
"""Repository benchmark runner (perfbench/README.md).

Builds the C++ benchmark binary from source (perfbench/CMakeLists.txt) and runs it.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One measured run. The last line of standard output is the result
      object: correct, attempted, failed, and the metrics BENCHMARK.json
      names for the mode (end_to_end with --trace 0, per_layer with 1).
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload once; prints every end-to-end metric with its unit
      and sample count.
  python3 perfbench/run.py --steady [--runs N] [--workload W] [--seconds S]
      Steadiness check: N runs per workload on this build, each with its
      own seed; per metric the median, quartiles and spread against the
      bound in BENCHMARK.json.
  python3 perfbench/run.py --smoke
      Short traced runs of every workload with every output check on;
      exits non-zero if a check fails or a metric is missing.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT if not os.path.isabs(base) else "", base,
                             "perfbench")
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--parallel", "4"]]
    for step in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (step[:2], e))
        if done.returncode != 0:
            fail("build step %s exited with %d" % (step[:2], done.returncode))
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Runs the binary once; returns (exit code, human lines, raw result)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("benchmark run failed: %s" % e)
    lines = done.stdout.splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result (exit code %d)" % done.returncode)
    return done.returncode, lines[:-1], raw


def contract_result(spec, raw, trace):
    """Keeps exactly the metrics BENCHMARK.json names for the mode."""
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        measured = raw["metrics"].get(entry["name"])
        if measured is None:
            fail("benchmark did not report metric %s" % entry["name"])
        if measured["unit"] != entry["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (entry["name"], measured["unit"], entry["unit"]))
        if not math.isfinite(measured["value"]):
            fail("metric %s is not finite" % entry["name"])
        metrics[entry["name"]] = {"value": measured["value"],
                                  "unit": entry["unit"]}
    return {"correct": bool(raw["correct"]), "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def workload_names(spec, chosen):
    names = [w["name"] for w in spec["workloads"]]
    for name in chosen or []:
        if name not in names:
            fail("unknown workload %s (known: %s)" % (name, ", ".join(names)))
    return chosen or names


def mode_single(spec, args):
    binary = build()
    code, human, raw = run_binary(binary, args.workload, args.seed,
                                  args.seconds, args.trace)
    for line in human:
        print(line)
    result = contract_result(spec, raw, args.trace)
    print(json.dumps(result))
    if code != 0 or not result["correct"]:
        print("perfbench: OUTPUT CHECK FAILED (exit code %d)" % code,
              file=sys.stderr)
        sys.exit(1)


def mode_all(spec, args):
    binary = build()
    rows = []
    ok = True
    for workload in workload_names(spec, args.workloads):
        code, human, raw = run_binary(binary, workload, args.seed,
                                      args.seconds, False)
        for line in human:
            print(line)
        ok = ok and code == 0 and raw["correct"]
        for entry in spec["end_to_end"] + [{"name": "failed_ratio"}]:
            m = raw["metrics"][entry["name"]]
            rows.append((workload, entry["name"], m["value"], m["unit"],
                         m["samples"]))
    print()
    print("%-13s %-15s %16s  %-9s %s" % ("workload", "metric", "value",
                                          "unit", "samples"))
    for row in rows:
        print("%-13s %-15s %16.6f  %-9s %d" % row)
    print("all output checks passed" if ok else "OUTPUT CHECK FAILED")
    sys.exit(0 if ok else 1)


def spread(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, ((q3 - q1) / median) if median else float("inf")


def mode_steady(spec, args):
    binary = build()
    ok = True
    for workload in workload_names(spec, args.workloads):
        values = {entry["name"]: [] for entry in spec["end_to_end"]}
        for run in range(args.runs):
            seed = args.seed + run
            code, _, raw = run_binary(binary, workload, seed, args.seconds,
                                      False)
            ok = ok and code == 0 and raw["correct"]
            for name in values:
                values[name].append(raw["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items())),
                flush=True)
        print("%-13s %-15s %12s %12s %12s %8s %6s  %s" % (
            "workload", "metric", "median", "q1", "q3", "spread", "bound",
            "verdict"))
        for entry in spec["end_to_end"]:
            median, q1, q3, share = spread(values[entry["name"]])
            bound = entry["bound"]
            if entry["name"] == "setup_s":
                verdict = "median only"
            elif share < bound / 3:
                verdict = "steady"
            elif share <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
            print("%-13s %-15s %12.6g %12.6g %12.6g %8.4f %6.2f  %s" % (
                workload, entry["name"], median, q1, q3, share, bound,
                verdict), flush=True)
    sys.exit(0 if ok else 1)


def mode_smoke(spec, args):
    binary = build()
    names = [e["name"] for e in spec["end_to_end"] + spec["per_layer"]]
    ok = True
    for workload in workload_names(spec, args.workloads):
        code, human, raw = run_binary(binary, workload, args.seed, 1, True,
                                      smoke=True)
        problems = []
        if code != 0 or not raw["correct"]:
            problems.append("output checks failed (exit %d)" % code)
        if raw["attempted"] < 1:
            problems.append("nothing attempted")
        if workload != "serve-social" and raw["failed"] != 0:
            problems.append("%d failed requests" % raw["failed"])
        for name in names:
            m = raw["metrics"].get(name)
            if m is None or not math.isfinite(m["value"]):
                problems.append("metric %s missing or not finite" % name)
        print("smoke %-13s %s" % (workload, "ok" if not problems
                                  else "FAILED: " + "; ".join(problems)),
              flush=True)
        if problems:
            ok = False
            for line in human:
                print("  " + line)
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--steady", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seed < 0 or not 1 <= args.seconds <= 600 or args.runs < 2:
        fail("--seed must be >= 0, --seconds in 1..600, --runs >= 2")
    if args.all:
        mode_all(spec, args)
    elif args.steady:
        mode_steady(spec, args)
    elif args.smoke:
        mode_smoke(spec, args)
    else:
        if not args.workloads or len(args.workloads) != 1:
            fail("give exactly one --workload (or --all/--steady/--smoke)")
        args.workload = workload_names(spec, args.workloads)[0]
        mode_single(spec, args)


if __name__ == "__main__":
    main()
