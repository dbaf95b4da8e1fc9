#!/usr/bin/env python3
"""End-to-end Cloud benchmark: build, run one workload, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload packet-scda --seconds 25 --trace 0

Builds perfbench/ (and the simulator sources it compiles) into the
directory named by CARGO_TARGET_DIR, default .bench_build, then runs
scda_perfbench. Its metric lines are echoed; the last line of standard
output is one JSON object with the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1). The exit code is 0 only
when every check passed: repetitions agree on the checksum, the
client-operation accounting balances, and for the default seed the
checksum and simulated metrics match expected.json.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
# Simulated outcomes recorded in expected.json for the default seed.
EXACT = ("sim_op_p50_s", "sim_op_p95_s", "sim_op_p99_s", "sim_afct_s",
         "op_fail_ratio", "ops_completed")


def build():
    """Configure once, then bring the build up to date; returns the binary."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "-j", "2",
                        "--target", "scda_perfbench"],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "scda_perfbench")


def parse(output):
    """Metric lines, and the checksum, accounting and result lines."""
    metrics, fields = {}, {}
    for line in output.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "metric":
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] in ("checksum", "accounting", "result"):
            fields[parts[0]] = parts[1:]
    return metrics, fields


def check_expected(workload, metrics, checksum):
    """Problems with the default seed's recorded outcome, if any."""
    with open(os.path.join(HERE, "expected.json")) as f:
        want = json.load(f)[workload]
    problems = []
    if checksum != want["checksum"]:
        problems.append(f"checksum {checksum} != expected {want['checksum']}")
    for name in EXACT:
        got = metrics[name][0]
        if got != want[name]:
            problems.append(f"{name} {got!r} != expected {want[name]!r}")
    return problems


def record_expected(workload, metrics, checksum):
    path = os.path.join(HERE, "expected.json")
    recorded = {}
    if os.path.exists(path):
        with open(path) as f:
            recorded = json.load(f)
    recorded[workload] = {"checksum": checksum,
                          **{name: metrics[name][0] for name in EXACT}}
    with open(path, "w") as f:
        json.dump(recorded, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's outcome in expected.json "
                    "(default seed only)")
    args = ap.parse_args()
    if args.record and args.seed != DEFAULT_SEED:
        sys.exit(f"run.py: --record needs the default seed {DEFAULT_SEED}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload!r}")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    metrics, fields = parse(proc.stdout)
    if "result" not in fields:
        sys.exit(f"run.py: scda_perfbench exited {proc.returncode} "
                 "without a result")

    result = dict(zip(fields["result"][0::2], fields["result"][1::2]))
    correct = proc.returncode == 0 and result["correct"] == "1"
    if args.record:
        if not correct:
            sys.exit("run.py: not recording the outcome of a failed run")
        record_expected(args.workload, metrics, fields["checksum"][0])
    elif args.seed == DEFAULT_SEED:
        problems = check_expected(args.workload, metrics, fields["checksum"][0])
        for p in problems:
            print(f"# error: {p}")
        correct = correct and not problems

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    wrong = [m["name"] for m in wanted
             if metrics.get(m["name"], (0, None))[1] != m["unit"]]
    if wrong:
        sys.exit(f"run.py: metrics missing or in another unit: {wrong}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
