#!/usr/bin/env python3
"""Build and run the nkrylov end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root.  The first call configures and builds the
nkrylov library and the nkbench program into the build directory
($CARGO_TARGET_DIR when set, else .bench_build); later calls only re-check
the build.  Build output goes to stderr.  nkbench's stdout is passed
through, and its last line is the one-line JSON result.  Reports, results
and spans are written to <build dir>/results.

A traced run (--trace 1) also prints how far its end-to-end numbers moved
against the untraced run of the same workload and seed, when one is stored.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def build(build_dir):
    bdir = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", bdir, "--target", "nkbench", "-j", "4"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "nkbench")


def arg_value(args, flag):
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def tracing_delta(results_dir, args):
    """End-to-end tts of this traced run against the stored untraced run."""
    stem = "%s-seed%s-trace" % (arg_value(args, "--workload"), arg_value(args, "--seed"))
    try:
        with open(os.path.join(results_dir, stem + "0.json")) as f:
            base = json.load(f)["end_to_end"]
        with open(os.path.join(results_dir, stem + "1.json")) as f:
            traced = json.load(f)["end_to_end"]
    except (OSError, ValueError, KeyError):
        return None
    keys = [k for k in base if k.startswith("tts_")]
    b = sum(base[k]["value"] for k in keys)
    t = sum(traced[k]["value"] for k in keys)
    return "tracing overhead vs the untraced run of this seed: %+.2f%% of summed tts" % (
        100.0 * (t - b) / b)


def main():
    args = sys.argv[1:]
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return fail("the nkrylov sources (CMakeLists.txt, src/) are not beside perfbench/")
    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        return fail("build failed: %s" % e)
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    try:
        proc = subprocess.run([exe] + args + ["--out", results], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("nkbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    print("\n".join(lines[:-1]))
    if arg_value(args, "--trace") == "1":
        delta = tracing_delta(results, args)
        if delta:
            print(delta)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
