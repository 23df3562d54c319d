#!/usr/bin/env python3
"""Repo benchmark: one workload, seeded, timed end to end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload batch-deep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Each run builds the library, the `flint-forest` CLI and the perfbench
binary from this checkout (under .bench_build/), prepares the seeded inputs
in a separate process (cached per seed and binary), runs the workload, and
prints the binary's info lines followed by the result line, which is always
the last line of stdout.  Workloads and metrics are described in
perfbench/README.md; the metric names are listed in BENCHMARK.json.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench", "cmake")
INPUTS = os.path.join(BUILD_ROOT, "perfbench", "inputs")
OUT = os.path.join(BUILD_ROOT, "perfbench", "out")
WORKLOADS = ("batch-deep", "serve-sparse", "serve-mixed", "file-predict")
KEEP_SEEDS = 3  # cached input sets kept per binary (each is tens of MiB)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(targets):
    """Configures (once) and builds `targets`; returns an error or None."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench", "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", ROOT, "-B", BUILD, *generator,
                         "-DCMAKE_BUILD_TYPE=Release",
                         "-DFLINT_BUILD_TESTS=OFF", "-DFLINT_BUILD_BENCHES=OFF",
                         "-DFLINT_BUILD_EXAMPLES=OFF",
                         "-DCMAKE_PROJECT_flint_INCLUDE=" +
                         os.path.join(HERE, "attach.cmake")]
            if subprocess.run(configure, stdout=log, stderr=log,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return "configure failed, see " + log_path
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", *targets]
        if subprocess.run(cmd, stdout=log, stderr=log,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return "build failed, see " + log_path
    return None


def binary(name):
    return os.path.join(BUILD, name)


def inputs_dir(seed):
    """Per-seed input cache, keyed by the perfbench binary so a rebuilt library
    (trainer included) regenerates its inputs; keeps the newest seeds."""
    with open(binary("perfbench"), "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:16]
    base = os.path.join(INPUTS, key)
    if os.path.isdir(INPUTS):
        for stale in os.listdir(INPUTS):
            if stale != key:
                shutil.rmtree(os.path.join(INPUTS, stale), ignore_errors=True)
    path = os.path.join(base, "seed-%d" % seed)
    if os.path.isdir(base):
        others = sorted((d for d in os.listdir(base) if d != os.path.basename(path)),
                        key=lambda d: os.path.getmtime(os.path.join(base, d)))
        for old in others[:max(0, len(others) - (KEEP_SEEDS - 1))]:
            shutil.rmtree(os.path.join(base, old), ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    os.utime(path)
    return path


def git_sha():
    sha = os.environ.get("FLINT_GIT_SHA")
    if sha:
        return sha
    if os.path.exists(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            return res.stdout.strip()
    return "unknown"


def selftest():
    err = build(["perfbench", "perfbench_tests", "flint-forest"])
    if err:
        return fail(err)
    scratch = os.path.join(BUILD_ROOT, "perfbench", "selftest")
    if subprocess.run([binary("perfbench_tests"), scratch]).returncode != 0:
        return fail("self-tests failed")
    # BENCHMARK.json must name exactly the metrics perfbench prints.
    import json
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([binary("perfbench"), "metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    printed = {kind: [] for kind in ("end_to_end", "per_layer")}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        printed[kind].append((name, unit))
    for kind in printed:
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != printed[kind]:
            return fail("BENCHMARK.json %s differs from perfbench's list" % kind)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        return fail("BENCHMARK.json workloads differ from run.py")
    print("perfbench self-tests passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        return fail("no library sources next to perfbench/; run from a full checkout")
    if args.selftest:
        return selftest()
    if args.workload is None:
        return fail("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    err = build(["perfbench", "flint-forest"])
    if err:
        return fail(err)
    inputs = inputs_dir(args.seed)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--inputs", inputs]
    try:
        prep = subprocess.run([binary("perfbench"), "prepare", *common],
                              timeout=RUN_TIMEOUT_S)
        if prep.returncode != 0:
            return fail("preparing inputs failed")
        os.makedirs(OUT, exist_ok=True)
        res = subprocess.run(
            [binary("perfbench"), "run", *common,
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--cli", binary("flint-forest"), "--out", OUT, "--git-sha", git_sha()],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("timed out")
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
