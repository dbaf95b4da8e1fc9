#!/usr/bin/env python3
"""Benchmark regression gate: compare a fresh bench_micro_core run
against the committed BENCH_core.json and fail on a real slowdown.

Raw items/s from a shared CI box are not comparable to the committed
numbers: docs/perf.md documents +/-15% swings between runs of the same
binary, and a different runner generation can shift every number 2x in
either direction. The committed file handles this by trusting ratios,
and this gate automates the same reading:

  1. ratio[b]    = current_run[b] / baseline[b]  for every benchmark
                   present in both the run and BENCH_core.json.
  2. drift       = median(ratio.values()).  Any one change touches a
                   minority of the suite, so the median ratio isolates
                   how much faster or slower the *host* is, exactly the
                   "estimate host drift from benchmarks the release did
                   not touch" step docs/perf.md performs by hand.
  3. adjusted[b] = ratio[b] / drift.  A benchmark fails the gate when
                   adjusted[b] < threshold (default 0.75, i.e. more
                   than a 25% regression beyond host drift).

The input is the google-benchmark JSON of a 3-repetition
aggregates-only run (the same invocation scripts/bench_core.sh uses to
refresh the baseline); only the *_median rows are read. The run must
carry scda_toolchain == "optimized" -- debug numbers are refused rather
than compared.

The churn ablation gate (--churn-input) is different in kind: the
bench_churn JSON is a pure function of arguments and seed, so its
`checksum` and every simulated field of every ablation cell are
compared for *equality* against the committed BENCH_churn.json — any
divergence is a determinism leak (or an unacknowledged behaviour
change), never host noise. The checksum folds only the headline
counters, so the per-cell comparison is what catches a moved
`under_replicated_s` or `mean_fct_s`. Wall time is deliberately not
gated there.

Usage:
  bench_micro_core --benchmark_repetitions=3 \
      --benchmark_report_aggregates_only=true \
      --benchmark_format=json > run.json
  scripts/bench_gate.py --input run.json            # gate vs BENCH_core.json
  scripts/bench_gate.py --input run.json --threshold 0.6
  bench_churn > churn.json
  scripts/bench_gate.py --churn-input churn.json    # vs BENCH_churn.json
  scripts/bench_gate.py --self-test                 # fixture suite (ctest)
"""

import argparse
import json
import statistics
import sys

DEFAULT_THRESHOLD = 0.75  # adjusted ratio below this => >25% regression
MIN_SHARED = 4  # fewer shared benchmarks than this makes the median drift
# estimate meaningless; refuse to gate instead of passing vacuously.


def load_run_medians(raw):
    """Extract {name: items_per_s} medians from google-benchmark JSON."""
    toolchain = raw.get("context", {}).get("scda_toolchain", "unknown")
    if toolchain != "optimized":
        raise SystemExit(
            f"bench_gate: refusing to gate non-optimized numbers "
            f"(scda_toolchain={toolchain!r}); build the benchmark in Release"
        )
    medians = {}
    for b in raw.get("benchmarks", []):
        name = b.get("name", "")
        if name.endswith("_median") and "items_per_second" in b:
            medians[name[: -len("_median")]] = b["items_per_second"]
    if not medians:
        raise SystemExit(
            "bench_gate: no *_median rows with items_per_second in the run; "
            "invoke with --benchmark_repetitions=3 "
            "--benchmark_report_aggregates_only=true --benchmark_format=json"
        )
    return medians


def gate(baseline, run_medians, threshold):
    """Return (report_rows, failures, drift).

    report_rows: [(name, base, cur, ratio, adjusted, ok)] sorted by name.
    failures:    subset of names whose adjusted ratio < threshold, plus
                 baseline benchmarks missing from the run (a silently
                 dropped benchmark must not silently pass the gate).
    """
    ratios = {}
    missing = []
    for name, entry in baseline.items():
        base = entry.get("current_items_per_s")
        if not base:
            continue  # baseline row never filled in; nothing to compare
        if name not in run_medians:
            missing.append(name)
            continue
        ratios[name] = run_medians[name] / base

    if len(ratios) < MIN_SHARED:
        raise SystemExit(
            f"bench_gate: only {len(ratios)} benchmark(s) shared with the "
            f"baseline (need >= {MIN_SHARED} for a drift estimate); "
            "benchmark names have diverged from BENCH_core.json"
        )

    drift = statistics.median(ratios.values())
    rows = []
    failures = list(missing)
    for name in sorted(ratios):
        base = baseline[name]["current_items_per_s"]
        cur = run_medians[name]
        ratio = ratios[name]
        adjusted = ratio / drift
        ok = adjusted >= threshold
        if not ok:
            failures.append(name)
        rows.append((name, base, cur, ratio, adjusted, ok))
    return rows, failures, drift


def run_gate(args):
    with open(args.input) as f:
        run_medians = load_run_medians(json.load(f))
    with open(args.baseline) as f:
        baseline = json.load(f).get("benchmarks", {})

    rows, failures, drift = gate(baseline, run_medians, args.threshold)

    print(
        f"bench_gate: {len(rows)} benchmarks vs {args.baseline}, "
        f"host drift x{drift:.2f} (median raw ratio), "
        f"threshold {args.threshold:.2f} adjusted"
    )
    width = max(len(r[0]) for r in rows)
    for name, base, cur, ratio, adjusted, ok in rows:
        flag = "ok  " if ok else "FAIL"
        print(
            f"  {flag} {name:<{width}}  base {base:>12,.0f}  "
            f"cur {cur:>12,.0f}  raw x{ratio:5.2f}  adj x{adjusted:5.2f}"
        )
    for name in failures:
        if name not in {r[0] for r in rows}:
            print(f"  FAIL {name:<{width}}  in baseline but absent from run")

    if failures:
        print(
            f"bench_gate: FAIL -- {len(failures)} benchmark(s) regressed "
            f">{(1 - args.threshold) * 100:.0f}% beyond host drift: "
            + ", ".join(sorted(failures))
        )
        return 1
    print("bench_gate: PASS")
    return 0


def gate_churn(run, baseline):
    """Return a list of failure strings comparing a bench_churn run to the
    committed baseline. Empty list = pass.

    The checksum and every cell field are pure functions of (arguments,
    seed): equality is the whole contract. The argument echo fields are
    compared first so a run with different knobs fails as "wrong
    configuration", not as a scary determinism leak.
    """
    failures = []
    if run.get("toolchain") != "optimized":
        failures.append(
            f"toolchain is {run.get('toolchain')!r}, need 'optimized' "
            "(build bench_churn in Release)"
        )
        return failures
    for key in ("bench", "duration_s", "drain_s", "arrival_rate",
                "server_mtbf_s", "server_mttr_s", "seed"):
        if run.get(key) != baseline.get(key):
            failures.append(
                f"configuration mismatch: {key} = {run.get(key)!r}, "
                f"baseline has {baseline.get(key)!r}"
            )
    if failures:
        return failures
    run_cells = run.get("cells", [])
    base_cells = baseline.get("cells", [])
    if len(run_cells) != len(base_cells):
        failures.append(
            f"cell count {len(run_cells)} != baseline {len(base_cells)}"
        )
    for i, (got, want) in enumerate(zip(run_cells, base_cells)):
        label = (f"cell {i} ({want.get('placement')}, "
                 f"replicas={want.get('replicas')})")
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                failures.append(
                    f"{label}: {key} = {got.get(key)!r}, baseline has "
                    f"{want.get(key)!r}"
                )
    if run.get("checksum") != baseline.get("checksum"):
        failures.append(
            f"checksum {run.get('checksum')} != committed "
            f"{baseline.get('checksum')} -- determinism leak or "
            "unacknowledged behaviour change (refresh BENCH_churn.json "
            "only with an explanation in the PR)"
        )
    return failures


def run_churn_gate(args):
    with open(args.churn_input) as f:
        run = json.load(f)
    with open(args.churn_baseline) as f:
        baseline = json.load(f)
    failures = gate_churn(run, baseline)
    if failures:
        for msg in failures:
            print(f"  FAIL {msg}")
        print(f"bench_gate: FAIL -- churn ablation vs {args.churn_baseline}")
        return 1
    print(
        f"bench_gate: PASS -- churn checksum {run['checksum']} and every "
        f"field of {len(run.get('cells', []))} cells match "
        f"{args.churn_baseline}"
    )
    return 0


# --- self-test fixtures ----------------------------------------------------


def _fake_baseline(values):
    return {n: {"current_items_per_s": v} for n, v in values.items()}


def _expect(cond, label):
    if not cond:
        raise SystemExit(f"bench_gate --self-test: FAILED: {label}")
    print(f"  ok: {label}")


def self_test():
    base = _fake_baseline(
        {"BM_A": 100.0, "BM_B": 200.0, "BM_C": 400.0, "BM_D": 800.0, "BM_E": 50.0}
    )

    # Identical numbers: drift 1.0, everything passes.
    rows, failures, drift = gate(
        base, {"BM_A": 100, "BM_B": 200, "BM_C": 400, "BM_D": 800, "BM_E": 50}, 0.75
    )
    _expect(not failures and abs(drift - 1.0) < 1e-9, "identical run passes")

    # Uniformly slow host (0.5x everywhere): pure drift, still passes.
    rows, failures, drift = gate(
        base, {"BM_A": 50, "BM_B": 100, "BM_C": 200, "BM_D": 400, "BM_E": 25}, 0.75
    )
    _expect(not failures and abs(drift - 0.5) < 1e-9, "uniform 0.5x drift passes")

    # Fast host hiding a real regression: everything 2x except BM_C at
    # 1.0x raw = 0.5x adjusted. Raw comparison would call BM_C fine.
    rows, failures, drift = gate(
        base, {"BM_A": 200, "BM_B": 400, "BM_C": 400, "BM_D": 1600, "BM_E": 100}, 0.75
    )
    _expect(
        failures == ["BM_C"] and abs(drift - 2.0) < 1e-9,
        "regression behind 2x host drift caught",
    )

    # Borderline: exactly at threshold passes (>=), just below fails.
    rows, failures, _ = gate(
        base, {"BM_A": 75, "BM_B": 150, "BM_C": 300, "BM_D": 600, "BM_E": 37.5}, 0.75
    )
    _expect(not failures, "drift 0.75 with no outlier passes")
    rows, failures, _ = gate(
        base, {"BM_A": 100, "BM_B": 200, "BM_C": 400, "BM_D": 800, "BM_E": 37}, 0.75
    )
    _expect(failures == ["BM_E"], "single outlier below threshold fails")

    # A benchmark silently dropped from the run fails the gate.
    rows, failures, _ = gate(
        base, {"BM_A": 100, "BM_B": 200, "BM_C": 400, "BM_D": 800}, 0.75
    )
    _expect(failures == ["BM_E"], "baseline benchmark missing from run fails")

    # Too few shared benchmarks refuses to gate.
    try:
        gate(base, {"BM_A": 100, "BM_B": 200}, 0.75)
        _expect(False, "sparse overlap refused")
    except SystemExit as e:
        _expect("shared" in str(e), "sparse overlap refused")

    # Debug toolchain refused at ingestion.
    try:
        load_run_medians({"context": {"scda_toolchain": "debug"}, "benchmarks": []})
        _expect(False, "debug toolchain refused")
    except SystemExit as e:
        _expect("non-optimized" in str(e), "debug toolchain refused")

    # Median extraction ignores mean/stddev aggregate rows.
    medians = load_run_medians(
        {
            "context": {"scda_toolchain": "optimized"},
            "benchmarks": [
                {"name": "BM_A_mean", "items_per_second": 1.0},
                {"name": "BM_A_median", "items_per_second": 2.0},
                {"name": "BM_A_stddev", "items_per_second": 0.1},
            ],
        }
    )
    _expect(medians == {"BM_A": 2.0}, "only *_median rows ingested")

    # --- churn gate fixtures ----------------------------------------------
    cells = [
        {"placement": "scda", "replicas": 1, "repair_flows": 0,
         "mean_fct_s": 0.131973, "under_replicated_s": 2755.208},
        {"placement": "scda", "replicas": 2, "repair_flows": 407,
         "mean_fct_s": 0.136943, "under_replicated_s": 1837.554},
    ]
    committed = {
        "bench": "churn", "duration_s": 30, "drain_s": 15,
        "arrival_rate": 30, "server_mtbf_s": 60, "server_mttr_s": 4,
        "seed": 1, "checksum": "abc123", "toolchain": "optimized",
        "cells": cells,
    }
    good = dict(committed, wall_s=9.9)  # wall time may differ freely
    _expect(gate_churn(good, committed) == [], "matching churn run passes")
    _expect(
        any("checksum" in m for m in
            gate_churn(dict(good, checksum="def456"), committed)),
        "churn checksum divergence fails",
    )
    _expect(
        any("toolchain" in m for m in
            gate_churn(dict(good, toolchain="debug"), committed)),
        "debug churn run refused",
    )
    mismatched = gate_churn(dict(good, seed=2, checksum="zzz"), committed)
    _expect(
        any("configuration mismatch" in m for m in mismatched)
        and not any("determinism" in m for m in mismatched),
        "wrong knobs reported as configuration, not determinism",
    )
    _expect(
        any("cell count" in m for m in
            gate_churn(dict(good, cells=cells[:1]), committed)),
        "missing ablation cell fails",
    )
    # A field the checksum does not fold moves under an unchanged checksum.
    moved = [dict(cells[0]), dict(cells[1], under_replicated_s=1840.0)]
    _expect(
        gate_churn(dict(good, cells=moved), committed) == [
            "cell 1 (scda, replicas=2): under_replicated_s = 1840.0, "
            "baseline has 1837.554"
        ],
        "moved simulated field fails under an equal checksum",
    )
    dropped = [dict(cells[0]), dict(cells[1])]
    del dropped[0]["mean_fct_s"]
    _expect(
        any("mean_fct_s = None" in m for m in
            gate_churn(dict(good, cells=dropped), committed)),
        "cell field missing from the run fails",
    )

    print("bench_gate --self-test: all fixtures passed")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--input", help="google-benchmark JSON of the fresh run")
    p.add_argument(
        "--baseline", default="BENCH_core.json", help="committed baseline file"
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="minimum drift-adjusted ratio (default 0.75 = fail on >25%% "
        "regression beyond host drift)",
    )
    p.add_argument(
        "--churn-input", help="bench_churn JSON to gate by equality"
    )
    p.add_argument(
        "--churn-baseline",
        default="BENCH_churn.json",
        help="committed churn ablation baseline",
    )
    p.add_argument(
        "--self-test", action="store_true", help="run the fixture suite and exit"
    )
    args = p.parse_args()

    if args.self_test:
        return self_test()
    if args.churn_input:
        return run_churn_gate(args)
    if not args.input:
        p.error("--input or --churn-input is required (or use --self-test)")
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
