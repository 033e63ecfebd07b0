#!/usr/bin/env python3
"""Builds and runs the cmvrp benchmark program, cmvrp_perfbench.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sparse-2d, flood-3d, replay-4d (see BENCHMARK.json and
perfbench.cpp for what each one measures). The first call configures a
Release build of perfbench/ -- the repository's libraries from src/
plus cmvrp_perfbench -- under .bench_build/perfbench; every call brings
that build up to date, then runs the program. Build output goes to
stderr and the program's stdout passes through, so its JSON result
stays the last line of stdout.

Exit code: the program's (0 when every output check passed, 1 when one
failed, 2 on bad arguments), or 1 when the build fails, the program
crashes, or it runs past its time limit.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD / "cmvrp_perfbench"
# Scratch files of a run (replay-4d's traces) and the traced run's spans.
WORK = BUILD / "work"
PROGRAM_TIMEOUT_S = 170


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", PROGRAM.name, "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    command = [str(PROGRAM), *sys.argv[1:], "--work-dir", str(WORK)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: cmvrp_perfbench ran past {PROGRAM_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    if done.returncode < 0:
        print(f"perfbench: cmvrp_perfbench killed by signal {-done.returncode}",
              file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
