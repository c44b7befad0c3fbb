#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Run from the root of a checkout:

    python3 benchmark/run.py --workload ycsb_bulk40 --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --selftest        # the output checks' own tests

The engine and the benchmark are built with CMake into .bench_build/ (an
incremental no-op after the first build); traces and the WAL of a run go to
.bench_out/. Build output goes to stderr; the last line of stdout is the
benchmark's JSON result. The exit status is the benchmark's: nonzero only
when the build fails, an argument is wrong, or an output check fails.

setup_s is the median of SETUPS cold set-ups, each in a fresh process: the
measured run's own, and SETUPS - 1 more made with `rocc_bench --setup-only 1`
after it.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
SETUPS = 5


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            print("benchmark build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def arg_value(argv, name):
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def cold_setup_s(argv):
    """Set-up time of one fresh rocc_bench process for the run's workload."""
    cmd = [os.path.join(BUILD_DIR, "rocc_bench"), "--workload", arg_value(argv, "--workload"),
           "--seed", arg_value(argv, "--seed"), "--setup-only", "1", "--out-dir", OUT_DIR]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if res.returncode != 0:
        return None
    return json.loads(res.stdout.splitlines()[-1])["setup_s"]


def main(argv):
    if not build():
        return 3
    sys.stderr.flush()
    if argv[:1] == ["--selftest"]:
        return subprocess.run([os.path.join(BUILD_DIR, "check_selftest"),
                               "--out-dir", OUT_DIR]).returncode
    cmd = [os.path.join(BUILD_DIR, "rocc_bench")] + argv + ["--out-dir", OUT_DIR]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.splitlines()
    if res.returncode == 0 and lines and arg_value(argv, "--trace") == "0":
        result = json.loads(lines[-1])
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUPS - 1):
            s = cold_setup_s(argv)
            if s is None:
                print("a set-up-only run failed", file=sys.stderr)
                return 1
            setups.append(s)
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines[-1] = json.dumps(result)
    if lines:
        print("\n".join(lines))
    return res.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
