#!/usr/bin/env python3
"""Build and run the eDKM repository benchmark.

    python3 perfbench/run.py --workload serve_decode --seed 1 \
        --seconds 15 --trace 0

Run from the root of a source checkout. Builds perfbench/ (which
compiles the library from ../src exactly as the root CMake project does)
into .bench_build/, runs one workload, and relays its output. The last
line of standard output is the result JSON; the metric names in it are
checked against BENCHMARK.json before it is printed. Scratch files,
results and traces go to .bench_out/. Exits nonzero, without a result,
when the sources are missing or the build fails, and nonzero with a
result when any output was wrong.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "edkm_perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve_decode", "serve_chat", "train_step")


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        # Disconnected: the build never fetches a dependency.
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "edkm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            fail(4, "build step failed: " + " ".join(cmd))


def source_id():
    """The git sha when the checkout is a repository, else a SHA-1 over
    the sources the benchmark builds."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha1:" + digest.hexdigest()


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(6, "result keys differ from the contract")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(6, "metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(want.items())))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(3, "not a source checkout: %s is missing" % need)
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", OUT, "--git-sha", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(5, "run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(proc.returncode or 7, "run ended without a result")
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
