#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build (relative to the repository root), and its output goes to
stderr, so the last stdout line is perfbench's JSON result. A traced run
writes its spans to spans.csv in the build directory. The exit code is the
program's (nonzero if the build fails or any row fails).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, target):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    selftest = sys.argv[1:] == ["--selftest"]
    target = "perfbench_selftest" if selftest else "perfbench"
    try:
        binary = build(build_dir, target)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    args = [] if selftest else sys.argv[1:] + [
        "--spans-out", os.path.join(build_dir, "spans.csv")]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
