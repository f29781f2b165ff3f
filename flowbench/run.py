#!/usr/bin/env python3
"""Build and run one flowbench workload.

Usage, from the repository root:

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds flowbench (a CMake package that compiles the islhls library from
src/) into .bench_build/flowbench, probes the host in a separate process
(CPU model, cores, last-level cache raw and clamped, copy bandwidth), runs
the workload in its own process so its peak RSS is its own, and prints the
workload's human-readable lines followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics (the traced run also writes a Chrome
trace-event file and a self-time table under .bench_build/flowbench/out/traces).
Exits non-zero without a result line when the build, the probe or the
workload fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build", "flowbench")
BUILD_DIR = os.path.join(BUILD_ROOT, "build")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
BINARY = os.path.join(BUILD_DIR, "flowbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("flowbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns CompletedProcess."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail("timed out after %ds: %s" % (timeout, " ".join(cmd)))
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build(jobs):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "service.hpp")):
        fail("islhls sources (src/) not found next to flowbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(jobs)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def host_probe():
    done = run_checked([BINARY, "--host-probe"], RUN_TIMEOUT_S,
                       stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail("host probe failed")
    host = json.loads(done.stdout.strip().splitlines()[-1])
    print("# host: %s, %d hardware threads, LLC %.1f MiB raw / %.1f MiB clamped%s"
          % (host["cpu_model"], host["cores"], host["llc_raw_mib"], host["llc_mib"],
             "" if host["llc_probed"] else " (not probed: fallback)"))
    print("host_copy_gbps = %r GB/s (1 thread, 2 x %.0f MiB arrays)"
          % (host["copy_gbps"], host["copy_array_mib"]))
    return host


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build(min(4, os.cpu_count() or 1))
    host = host_probe()

    shutil.rmtree(os.path.join(OUT_DIR, "tmp"), ignore_errors=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    done = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("workload %s exited with %d" % (args.workload, done.returncode))
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    if args.trace:
        result["metrics"].update({
            "host.cores": {"value": host["cores"], "unit": "count"},
            "host.llc_raw_mib": {"value": host["llc_raw_mib"], "unit": "MiB"},
            "host.llc_mib": {"value": host["llc_mib"], "unit": "MiB"},
            "host.copy_gbps": {"value": host["copy_gbps"], "unit": "GB/s"},
        })
    expected = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        fail("metrics do not match BENCHMARK.json: missing %s, unexpected %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
