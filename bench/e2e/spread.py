#!/usr/bin/env python3
"""Run the end-to-end benchmark over several seeds and print, per metric,
the median and the quartile spread (Q3 - Q1 over the median, quartiles as
statistics.quantiles(values, n=4) gives them).

    python3 bench/e2e/spread.py --workload mobilenet-v1 --runs 10 --seconds 30

Run from the repository root. Exits non-zero if any run fails or reports
"correct": false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "run.py")
    values = {}
    units = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, run_py, "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    for name, vals in values.items():
        med = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
        print(f"{name:28s} {med:14.6g} {units[name]:6s} spread {spread:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
