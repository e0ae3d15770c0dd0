#!/usr/bin/env python3
"""End-to-end benchmark of sparsechol: builds the runner, runs one workload.

    python3 perfbench/run.py --workload lp_cold|cube_factor|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
perfbench/ (the library from src/ plus perfbench_runner) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls only
bring that build up to date. The runner's '#' lines (run metadata, metric
table) are passed through and the last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end set of BENCHMARK.json, with --trace 1 the per_layer
set; a traced run also writes a Chrome trace-event file into the build
directory. The exit code is 0 only when the build succeeded, every answer
passed its check and the metric set matches BENCHMARK.json. See
perfbench/README.md for the metrics and workloads.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                # Drop the failed configuration so the next call starts clean.
                cache = os.path.join(out, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                fail("configure failed, see " + log_path)
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", out, "--target", "perfbench_runner", "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            fail("build failed, see " + log_path)
    return os.path.join(out, "perfbench_runner")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    expected = expected_metrics(args.trace == 1)
    out = build_dir()
    exe = build(out)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--socket", "spcd-%d.sock" % os.getpid()]
    if args.trace:
        cmd += ["--trace-out", "trace-%s-%d.json" % (args.workload, args.seed)]
    # The runner works inside the build directory: the daemon's socket and
    # the trace file land there.
    try:
        proc = subprocess.run(cmd, cwd=out, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("runner exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1):
        fail("runner exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("runner printed no result line")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("metric set differs from BENCHMARK.json: %s" % sorted(set(got) ^ set(expected)))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
