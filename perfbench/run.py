#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload ladder|verify|service --seed N \
        --seconds S --trace 0|1

The harness (perfbench/harness.cpp) is compiled together with the
libraries under src/ into the build directory: $CARGO_TARGET_DIR when set,
else .bench_build, relative to the repository root. With --trace 0 the
set-up is also repeated in fresh processes and setup_s is the median of all
samples. Every time and rate is reported at a reference speed of the host
(HostSpeed in harness.cpp; README.md, "Steadiness"). The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
output was correct.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("ladder", "verify", "service")
# Set-up samples taken in fresh processes, besides the measured run's own.
SETUP_PROCESSES = 4
# Hard ceiling on each harness process, so a hang cannot outlive the run.
PROCESS_TIMEOUT_S = 160


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "--target", "bds_perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "bds_perfbench")


def run_harness(exe, out_dir, args):
    """Runs the harness in the build directory; returns its parsed last
    line and its exit code."""
    try:
        proc = subprocess.run([exe] + args, cwd=out_dir, stdout=subprocess.PIPE,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out: " + " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result (exit %d)" % proc.returncode)
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    try:
        return json.loads(lines[-1]), proc.returncode
    except json.JSONDecodeError:
        fail("harness result is not JSON: " + lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    exe = build(out_dir)
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]

    # Set-up samples are taken before and after the measured run, so a slow
    # or fast spell of the host does not hit all of them.
    setup_samples = []

    def sample_setups(count):
        for _ in range(count):
            sample, code = run_harness(exe, out_dir, common + ["--setup-only"])
            if code != 0:
                fail("set-up failed (exit %d)" % code)
            setup_samples.append(sample["setup_s"])

    if not opts.trace:
        sample_setups(SETUP_PROCESSES // 2)
    spans = "spans-%s-s%d.jsonl" % (opts.workload, opts.seed)
    run_args = common + ["--seconds", repr(opts.seconds),
                         "--trace", str(opts.trace)]
    if opts.trace:
        run_args += ["--spans", spans]
    result, code = run_harness(exe, out_dir, run_args)
    if not opts.trace:
        sample_setups(SETUP_PROCESSES - SETUP_PROCESSES // 2)
        setup = result["metrics"]["setup_s"]
        setup_samples.append(setup["value"])
        setup["value"] = statistics.median(setup_samples)
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result.get("correct") else 1)


if __name__ == "__main__":
    main()
