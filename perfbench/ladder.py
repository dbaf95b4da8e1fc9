#!/usr/bin/env python3
"""Load ladder: how host time grows with offered load (report only).

    python3 perfbench/ladder.py [--reps 3] [--seed 1]

Runs fluid-scale and packet-scda at 1x, 2x and 4x their offered request
rate, untraced, and prints a markdown table. For each rung it prints the
median run-loop host time, completed operations per second of it, and
the growth of that time per load doubling; linear scaling reads 2.00.
"""
import argparse
import statistics
import subprocess

import run

RUNGS = (1, 2, 4)


def loop_seconds(binary, workload, mult, seed, reps):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--rate-mult", str(mult), "--seconds", "0", "--min-reps", str(reps)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    loops = [float(line.split()[line.split().index("loop_s") + 1])
             for line in out.splitlines() if line.startswith("# rep ")]
    metrics, _ = run.parse(out)
    loop = statistics.median(loops)
    return loop, metrics["ops_completed"][0] / loop


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    binary = run.build()
    print("| workload | load | ops_per_s | loop host s | growth per doubling |")
    print("|---|---|---|---|---|")
    for workload in ("fluid-scale", "packet-scda"):
        previous = None
        for mult in RUNGS:
            loop, ops = loop_seconds(binary, workload, mult, args.seed,
                                     args.reps)
            growth = f"{loop / previous:.2f}" if previous else "–"
            print(f"| {workload} | {mult}× | {ops:.0f} | {loop:.2f} | "
                  f"{growth} |", flush=True)
            previous = loop


if __name__ == "__main__":
    main()
