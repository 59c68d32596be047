#!/usr/bin/env python3
"""Build and run the HTAP benchmark; print its result as one JSON line.

Run from the root of a pushtap checkout:

    python3 perfbench/run.py --workload ch_olap --seed 1 --seconds 14 --trace 0

The program is built from source into $CARGO_TARGET_DIR (default
.bench_build) with CMake on every run; an up-to-date build is a no-op.
With --trace 0 the result carries every end-to-end metric named in
BENCHMARK.json. With --trace 1 the workload runs twice with the same
seed, untraced and then traced: the traced run gives every per-layer
metric and a Chrome trace-event file, and the difference between the
two runs is reported as the tracing overhead.

Each run's full record (all metrics, workload details, per-layer self
time and environment) is appended to a JSON-lines results file
(default <build dir>/results.jsonl) that perfbench/compare.py reads.
The last line of standard output is the result object.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The workload runs (after the build) must end within 180 s.
DEADLINE_S = 165.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def remaining(start):
    return DEADLINE_S - (time.monotonic() - start)


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "htap_bench",
                  "-j", "4"])
    for cmd in steps:
        # The first build of a checkout may take minutes; later ones
        # are no-ops.
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "htap_bench")


def run_binary(binary, args, trace, trace_out, start):
    """Run one workload; returns the record the program printed last."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    budget = remaining(start)
    if budget <= 0:
        fail("no time left to run the workload")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {budget:.0f} s")
    sys.stderr.write(proc.stderr)
    for line in proc.stdout.splitlines():
        if line.startswith("#"):
            print(line)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # A crashed run: every operation counts as failed.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        fail(f"htap_bench exited with code {proc.returncode}")
    return json.loads(lines[-1])


def select(record, key, spec):
    """The metrics of @p record[key] named in @p spec, units checked."""
    out = {}
    for m in spec:
        got = record[key].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the {key} record")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']} != {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def overhead_pct(untraced, traced, name, better):
    u = untraced["end_to_end"][name]["value"]
    t = traced["end_to_end"][name]["value"]
    slower = (u - t) if better == "higher" else (t - u)
    return 100.0 * slower / u if u else 0.0


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    workloads = [w["name"] for w in bench["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", help="JSON-lines file to append the "
                        "full record to (default <build dir>/results.jsonl)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               os.path.join(ROOT,
                                                            ".bench_build")))
    binary = build(build_dir)

    start = time.monotonic()
    untraced = run_binary(binary, args, False, None, start)
    record = untraced
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, f"{args.workload}.trace.json")
        record = run_binary(binary, args, True, trace_out, start)
        overheads = (("trace.overhead_throughput_pct", "throughput_per_s",
                      "higher"),
                     ("trace.overhead_latency_pct", "latency_ms", "lower"))
        layers = [m for m in bench["per_layer"]
                  if m["name"] not in {o[0] for o in overheads}]
        metrics = select(record, "per_layer", layers)
        for name, e2e, better in overheads:
            metrics[name] = {"value": overhead_pct(untraced, record, e2e,
                                                   better),
                             "unit": "%"}
        record["per_layer"].update(metrics)
        record["untraced_end_to_end"] = untraced["end_to_end"]
        record["trace_file"] = trace_out
        attempted = untraced["attempted"] + record["attempted"]
        failed = untraced["failed"] + record["failed"]
    else:
        metrics = select(record, "end_to_end", bench["end_to_end"])
        attempted, failed = record["attempted"], record["failed"]

    record.update({"seed": args.seed, "trace": bool(args.trace)})
    results = args.results or os.path.join(build_dir, "results.jsonl")
    with open(results, "a") as f:
        f.write(json.dumps(record) + "\n")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
