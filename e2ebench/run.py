#!/usr/bin/env python3
"""Build and run the end-to-end assertion-job benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload paper_ibmqx4 --seed 1 \\
        --seconds 20 --trace 0

The script configures and builds e2ebench/ (a CMake project that
compiles the library from src/) in Release mode under
$CARGO_TARGET_DIR/e2ebench (default: .bench_build/e2ebench), then runs
the qra_e2e binary with the same arguments. qra_e2e prints a report
and, as its last stdout line, the result JSON. Build output goes to
stderr. The exit status is qra_e2e's, or 2 when the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "e2ebench"


def build(directory):
    """Configure and build; returns the binary path or None."""
    directory.mkdir(parents=True, exist_ok=True)
    # Keep the compiler's temporary files inside the build tree.
    tmp = directory / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [["cmake", "-S", str(HERE), "-B", str(directory),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(directory), "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(cmd)}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    binary = directory / "qra_e2e"
    return binary if binary.exists() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    directory = build_dir()
    binary = build(directory)
    if binary is None:
        return 2

    traces = directory / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: qra_e2e exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
