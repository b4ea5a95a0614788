#!/usr/bin/env python3
"""Measures how steady the benchmark is on this host.

    python3 perfbench/steadiness.py [--out FILE]

Runs the command in BENCHMARK.json for every workload over seeds 1-10, as
two back-to-back sets over the same seeds, and once more on the held-out
seed. For every end-to-end metric it reports each set's quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median against
the metric's bound, and how far the second set's median moved from the
first set's in the metric's worse direction. A run that fails is listed
and left out of the quartiles; the remaining runs are still made. Prints a
Markdown report, headed by the host signature (CPU count and model); --out
also writes it to a file.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
SEEDS = range(1, 11)
HELD_OUT_SEED = 7919


def host_signature():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "nproc %d, %s" % (os.cpu_count() or 0, model)


def run_once(spec, workload, seed):
    """Returns the run's metric values, or None when it failed."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    if proc.returncode != 0 or not result.get("correct"):
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="")
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    lines = ["Host: " + host_signature(),
             "Runs: %d sets x seeds %d-%d, then seed %d, %d s each" %
             (SETS, SEEDS[0], SEEDS[-1], HELD_OUT_SEED, spec["run_seconds"]),
             ""]
    printed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [{s: run_once(spec, workload, s) for s in SEEDS}
                for _ in range(SETS)]
        held_out = run_once(spec, workload, HELD_OUT_SEED)
        lines += ["### " + workload, ""]
        for i, runs in enumerate(sets):
            failed = [s for s, r in runs.items() if r is None]
            lines.append("Set %d: failed seeds: %s" %
                         (i + 1, ", ".join(map(str, failed)) or "none"))
        lines += ["Held-out seed %d: %s" %
                  (HELD_OUT_SEED, "failed" if held_out is None else "correct"),
                  "",
                  "| metric | bound | set | Q1 | median | Q3 | spread |"
                  " median moved |",
                  "|---|---|---|---|---|---|---|---|"]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for i, runs in enumerate(sets):
                values = [r[name] for r in runs.values() if r is not None]
                if len(values) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                if first_median is None:
                    first_median, moved = med, ""
                else:
                    worse = med - first_median
                    if metric["better"] == "higher":
                        worse = -worse
                    moved = "%+.3f" % (worse / first_median
                                       if first_median else 0.0)
                lines.append(
                    "| %s | %.2f | %d | %.6g | %.6g | %.6g | %.3f | %s |"
                    % (name, bound, i + 1, q1, med, q3, spread, moved))
        lines.append("")
        print("\n".join(lines[printed:]), flush=True)
        printed = len(lines)
    if opts.out:
        with open(opts.out, "w") as f:
            f.write("\n".join(lines))


if __name__ == "__main__":
    main()
