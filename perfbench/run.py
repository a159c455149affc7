#!/usr/bin/env python3
"""Builds the DominoDB benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload readers|commits|groupware \
        --seed N --seconds S --trace 0|1

The engine (src/) and the benchmark program are compiled with CMake into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when that is set)
on first use. The workload's databases live under .bench_data/ and are
removed afterwards; a traced run leaves its spans in
.bench_out/trace-<workload>.jsonl. The program's report goes to stdout and
its last line is the JSON result; build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("readers", "commits", "groupware")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", "4"], stdout=sys.stderr, check=True)
    return out / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        binary = build("perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    data_dir = ROOT / ".bench_data" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--data-dir", str(data_dir),
             "--out-dir", str(out_dir)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    last = proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]
    if proc.returncode != 0 or not last.startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
