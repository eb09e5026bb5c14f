#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
`perfbench` binary (this directory's CMake package, which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable
is unset; later runs only re-check the build. Build output goes to stderr.

One workload: the benchmark's stdout is passed through and the last line is
the result object, {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). `--workload all` runs every workload in turn and prints one
table of every metric with its unit. Scratch data lives under .bench_work/
and is removed when a run ends.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pep_select", "lsm_ingest_pushdown", "point_read")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no HEPnOS sources under {root}/src; run from the root of a checkout")
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def metric_units(trace):
    """Metric name -> unit, from the BENCHMARK.json beside this directory."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, root, workload, seed, seconds, trace, echo=True):
    """Run one workload; return its result object with units attached."""
    work_dir = os.path.join(root, ".bench_work")
    os.makedirs(work_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--work-dir", work_dir],
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1], file=sys.stderr)
        fail(f"{workload}: benchmark exited {proc.returncode} without a result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result: {lines[-1]}")
    units = metric_units(trace)
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        fail(f"{workload}: metrics missing from the result: {missing}")
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    result["correct"] = result["correct"] and proc.returncode == 0
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    if args.workload != "all":
        result = run_workload(binary, root, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        sys.exit(0 if result["correct"] else 1)

    results = {w: run_workload(binary, root, w, args.seed, args.seconds, args.trace, echo=False)
               for w in WORKLOADS}
    names = list(metric_units(args.trace))
    width = max(len(n) for n in names)
    print(f"{'metric':{width}}  " + "  ".join(f"{w:>20}" for w in WORKLOADS) + "  unit")
    for name in names:
        row = "  ".join(f"{results[w]['metrics'][name]['value']:>20.6g}" for w in WORKLOADS)
        print(f"{name:{width}}  {row}  {results[WORKLOADS[0]]['metrics'][name]['unit']}")
    for w in WORKLOADS:
        r = results[w]
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    sys.exit(0 if all(r["correct"] for r in results.values()) else 1)


if __name__ == "__main__":
    main()
