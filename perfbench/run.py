#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is its own Cargo package (perfbench/Cargo.toml) that uses
the repository's crates by path.  It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root); a build
that is already up to date costs a fraction of a second.  With --trace 1
the run's spans are written to <target>/perfbench/spans-NAME-seedN.jsonl.
The last line of standard output is the run's JSON result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small-fresh", "paper-repeat", "figure4-paper")
# A run measures for --seconds plus set-up; this caps a wedged one.
RUN_TIMEOUT_S = 170


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(target):
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    return subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = target_dir()
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [
        str(target / "release" / "pwam-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        spans = target / "perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        command += ["--spans", str(spans)]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
