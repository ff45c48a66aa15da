#!/usr/bin/env python3
"""Builds and runs the simulator benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload single_path --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The simulator and the benchmark driver are compiled from source in Release
into .bench_build/perfbench on first use. Stdout carries a human-readable
table (host, build, every metric with unit and direction) and, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics. The full result, with host and build, is also written to
.bench_build/results/. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("single_path", "dumbbell_128", "fleet_grid")
RUN_TIMEOUT_S = 170
# The end-to-end figures printed for every workload, in order. Those not in
# BENCHMARK.json (zero by design, or absent on some workloads) are printed
# here only.
SUMMARY = ("sim_s_per_wall_s", "scenarios_per_s", "setup_s", "peak_rss_mb", "failed_share",
           "sender_err_ms_p50", "sender_err_ms_p99", "receiver_err_ms_p50",
           "receiver_err_ms_p99")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def jobs():
    return max(1, len(os.sched_getaffinity(0)))


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        return subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/; run from the repository root")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_ROOT, "build.log")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            fail("cmake configure failed; see " + log)
    if run_logged(["cmake", "--build", BUILD_DIR, "--target", target, "-j", str(jobs())],
                  log) != 0:
        fail("build of %s failed; see %s" % (target, log))
    return os.path.join(BUILD_DIR, target)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def fmt(value):
    return "%.6g" % value


def print_table(result, wanted, workload, trace):
    metrics = result["metrics"]
    host = result["host"]
    print("perfbench %s seed=%s trace=%d" % (workload, result["seed"], trace))
    print("host: %s, nproc %d; build: %s, %s; commit %s" %
          (host["cpu_model"], host["nproc"], host["build_type"], host["compiler"],
           host["commit"]))
    rows = [(n, metrics[n]) for n in (SUMMARY if not trace else [m["name"] for m in wanted])
            if n in metrics]
    width = max(len(n) for n, _ in rows)
    for name, m in rows:
        print("  %-*s %14s %-8s %s is better" % (width, name, fmt(m["value"]), m["unit"],
                                                   m["better"]))
    print("  attempted %d, failed %d, correct %s" %
          (result["attempted"], result["failed"], result["correct"]))
    for p in result.get("problems", []):
        print("  problem: " + p)


def self_test():
    binary = build("perfbench_tests")
    return subprocess.run([binary], cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    binary = build("perfbench_sim")

    results_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
           "--suite", os.path.join("perfbench", "fleet_grid.json")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(results_dir, stem + ".spans.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    if proc.returncode != 0 or not proc.stdout.strip():
        fail("perfbench_sim exited with %d: %s" % (proc.returncode, proc.stderr.strip()))
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    info = result.pop("info")
    result["seed"] = args.seed
    result["host"] = {"cpu_model": cpu_model(), "nproc": info["nproc"],
                      "build_type": info["build_type"], "compiler": info["compiler"],
                      "commit": git_commit()}
    result["info"] = info
    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")

    out = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("workload %s did not report %s" % (args.workload, m["name"]))
        if got["unit"] != m["unit"] or got["better"] != m["better"]:
            fail("%s reported as %s/%s, BENCHMARK.json says %s/%s" %
                 (m["name"], got["unit"], got["better"], m["unit"], m["better"]))
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    print_table(result, wanted, args.workload, args.trace)
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
