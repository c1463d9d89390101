#!/usr/bin/env python3
"""The repository benchmark's entry point.

    python3 perfbench/run.py --workload <pipeline|threaded|recovery> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source tree. Builds the benchmark package
(perfbench/CMakeLists.txt, which builds the engine libraries from src/) into
.bench_build/perfbench, runs one workload with its WALs in a per-run
temporary directory under .bench_build/perfbench/tmp, and passes the
program's output through. The last line of standard output is the result
object; it is checked against BENCHMARK.json's metric lists first. Build
output goes to standard error. Any failure exits non-zero without printing
a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no engine sources under ./src; run from the root of a source tree")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_child(argv):
    """Runs argv, returning (returncode, stdout); kills it on timeout."""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail("timed out after %d s" % RUN_TIMEOUT_S)
        return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["pipeline", "threaded", "recovery"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    tmp_root = os.path.join(BUILD, "tmp")
    target = "perfbench_selftest" if args.selftest else "perfbench"
    binary = build(target)
    os.makedirs(tmp_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        if args.selftest:
            code, out = run_child([binary, scratch])
            sys.stdout.write(out)
            sys.exit(code)
        trace_out = os.path.join(BUILD, "traces", args.workload + ".tsv")
        code, out = run_child([
            binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scratch", os.path.join(scratch, "wal"), "--trace-out", trace_out])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0:
        fail("perfbench exited with %d" % code)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a result object")
    want = expected_metrics(args.trace == 1)
    have = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if have != want:
        fail("metrics %s do not match BENCHMARK.json %s" % (sorted(have), sorted(want)))
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
