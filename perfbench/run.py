#!/usr/bin/env python3
"""Maxson end-to-end benchmark.

Builds the repository's libraries and the benchmark driver as an optimised
(Release) CMake build in perfbench/build/, then runs one workload:

    python3 perfbench/run.py --workload raw_day --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of the repository. Build output and progress go to
stderr; the last line of stdout is the driver's JSON result. Traced runs
(--trace 1) write their spans to perfbench/out/.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work = os.path.join(OUT, f"work-{os.getpid()}")
    cmd = [BINARY, "--work-dir", work, "--out-dir", OUT]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd)
    try:
        return child.wait()
    finally:
        # Interrupted (SIGTERM or Ctrl-C): stop the driver and wait for it.
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
