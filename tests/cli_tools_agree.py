#!/usr/bin/env python3
"""Run one experiment through scda-sim and through a one-seed scda-sweep.

Both tools read the same shared flags into the same experiment, so every
metric id scda-sim prints must equal the sweep's mean for that id (one
seed: the mean is the run's value). Exits 1 naming each id that differs or
that only one tool reports.

usage: cli_tools_agree.py SCDA_SIM SCDA_SWEEP [shared flags ...]
"""
import json
import subprocess
import sys


def stdout_of(cmd):
    return subprocess.run(cmd, check=True, capture_output=True,
                          text=True).stdout


def main(argv):
    sim, sweep, flags = argv[1], argv[2], argv[3:]
    prefix = "# metrics: "
    line = next(l for l in stdout_of([sim, *flags, "--metrics", "1"])
                .splitlines() if l.startswith(prefix))
    sim_metrics = json.loads(line[len(prefix):])
    cell = json.loads(stdout_of([sweep, *flags, "--seeds", "1", "--arms",
                                 "scda", "--workers", "1", "--json"])
                      .splitlines()[0])
    # Each sweep metric is [mean, stddev, min, max].
    sweep_metrics = {k: v[0] for k, v in cell["metrics"].items()}

    bad = sorted(set(sim_metrics) ^ set(sweep_metrics))
    for k in bad:
        print(f"{k}: reported by only one tool")
    for k in sorted(set(sim_metrics) & set(sweep_metrics)):
        if sim_metrics[k] != sweep_metrics[k]:
            print(f"{k}: scda-sim {sim_metrics[k]} != scda-sweep "
                  f"{sweep_metrics[k]}")
            bad.append(k)
    print(f"{len(sim_metrics)} scda-sim ids, {len(bad)} disagree")
    return 1 if bad or not sim_metrics else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
