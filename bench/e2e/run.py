#!/usr/bin/env python3
"""End-to-end inference benchmark: build the driver, prepare the graph
files, run one workload and pass its result line through.

    python3 bench/e2e/run.py --workload resnet18-layers --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. Build outputs, graph files and span files
go under .bench_build/ (CARGO_TARGET_DIR, when set, names that
directory instead). The last line of stdout is the result JSON; build
and progress messages go to stderr. Exits non-zero, without a result,
when the library sources are missing or anything fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("resnet18-layers", "mobilenet-v1", "serve-small-cnn")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, cwd):
    """Run a build step; its output goes to stderr."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {root}/src")
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = out if os.path.isabs(out) else os.path.join(root, out)
    build = os.path.join(out, "e2e")
    data = os.path.join(out, "e2e-data")
    traces = os.path.join(out, "e2e-trace")

    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if subprocess.run(
            ["ninja", "--version"], capture_output=True).returncode == 0 \
            else []
        run_quiet(["cmake", "-S", here, "-B", build, *generator,
                   "-DCMAKE_BUILD_TYPE=Release"], root)
    run_quiet(["cmake", "--build", build, "--target", "e2e_driver",
               "-j", jobs], root)
    driver = os.path.join(build, "e2e_driver")

    run_quiet([driver, "prepare", "--workload", args.workload,
               "--data", data], root)
    proc = subprocess.run(
        [driver, "run", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace",
         str(args.trace), "--data", data, "--trace-dir", traces],
        cwd=root, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
