#!/usr/bin/env python3
"""Builds the benchmark harness (Release) and runs one workload.

    python3 ppbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ppbench/run.py --self-check

Run from the root of a checkout. The harness and the program's
inference-path modules are built from source into $CARGO_TARGET_DIR
(default .bench_build). The last line of standard output is the run's JSON
result. --trace 1 also writes the run's spans to
<build dir>/traces/<workload>-seed<N>.json.

--self-check runs every workload at a small key for a few inferences and
proves that the correctness checks can fail: a flipped output element or a
tampered crypto count must turn the result to "correct": false.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["stream-mnist2-512", "lanes-mnist2-1024", "tcp-heart-2048"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    bdir = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, **quiet)
    subprocess.run(["cmake", "--build", bdir, "--target", "ppbench",
                    "-j", str(os.cpu_count() or 1)], check=True, **quiet)
    return os.path.join(bdir, "ppbench")


def run(binary, args):
    """Runs the harness; returns (last-line JSON or None, stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("ppbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return None, []
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log("ppbench: harness exited with code %d" % proc.returncode)
        return None, lines
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("ppbench: last line is not JSON")
        return None, lines
    return result, lines


def self_check(binary):
    """Small-key runs: clean ones pass, tampered ones must fail."""
    ok = True
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--key-bits", "256", "--max-inferences", "4"]
        cases = [("trace 0", ["--trace", "0"], True),
                 ("trace 1", ["--trace", "1"], True),
                 ("flipped output", ["--trace", "0", "--tamper", "output"], False),
                 ("tampered count", ["--trace", "0", "--tamper", "count"], False)]
        for name, extra, want_correct in cases:
            result, _ = run(binary, base + extra)
            good = (result is not None and result["correct"] == want_correct
                    and result["failed"] == 0 and result["attempted"] >= 1)
            ok = ok and good
            print("%-20s %-16s %s" % (workload, name, "ok" if good else "FAILED"))
    print("self-check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    started = time.monotonic()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        log("ppbench: build failed: %s" % err)
        return 1
    log("ppbench: build ready in %.1f s" % (time.monotonic() - started))

    if args.self_check:
        return self_check(binary)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        harness_args += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    result, lines = run(binary, harness_args)
    if result is None:
        for line in lines:
            log(line)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
