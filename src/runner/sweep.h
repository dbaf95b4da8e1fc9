// SweepSpec: the declarative description of an experiment sweep — a base
// configuration, the arms to compare (placement x transport), an optional
// parameter grid, and a replication count — expanded into named runs with
// deterministically derived seeds.
//
// Determinism contract: expand_runs() is a pure function of the spec. Every
// RunSpec carries its expansion index, and run_sweep() writes results into
// a slot per index, so the SweepResult (and anything aggregated from it in
// run order) is byte-identical no matter how many workers executed it or in
// what order runs completed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runner/experiment.h"
#include "runner/params.h"
#include "runner/worker_pool.h"
#include "stats/aggregate.h"

namespace scda::runner {

/// One system under comparison (e.g. SCDA vs the RandTCP baseline).
struct Arm {
  std::string label;
  core::PlacementPolicy placement = core::PlacementPolicy::kScda;
  transport::TransportKind transport = transport::TransportKind::kScda;
};

/// One swept parameter (a name apply_param knows) and the values it takes.
/// Multiple axes form the cross product; the first axis varies slowest.
struct GridAxis {
  std::string param;
  std::vector<double> values;
};

struct SweepSpec {
  ExperimentConfig base;
  AfctBinning binning;
  std::vector<Arm> arms;
  std::vector<GridAxis> grid;   ///< empty = a single cell
  std::uint64_t seeds = 1;      ///< replications per (cell, arm)
  /// When non-empty, run index 0 (first cell, first arm, seed 0 — benches
  /// list the SCDA arm first) records a flight-recorder trace to this path
  /// (docs/observability.md). One run only: a sweep-wide recorder would
  /// interleave nondeterministically across workers.
  std::string trace_path;
};

/// One expanded run. Replication `seed_index` of every arm shares the same
/// derived seed, so arm comparisons are paired (common random numbers).
struct RunSpec {
  std::size_t index = 0;       ///< position in expansion order
  std::size_t cell_index = 0;  ///< grid cell (0 when the grid is empty)
  std::size_t arm_index = 0;
  std::uint64_t seed_index = 0;
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, double>> params;  ///< grid cell values
  std::string name;
};

struct SweepResult {
  std::vector<RunSpec> runs;               ///< expansion order
  std::vector<stats::RunResult> results;   ///< results[i] belongs to runs[i]
};

/// Replications of one (cell, arm) pair, ready for aggregation.
struct ArmSummary {
  std::size_t cell_index = 0;
  std::size_t arm_index = 0;
  std::string label;  ///< arm label, plus the cell's params when gridded
  std::vector<std::pair<std::string, double>> params;
  stats::RunAggregate agg;
};

/// Expand spec into runs: cells (first axis slowest) x arms x seeds, seeds
/// innermost. Pure function of the spec.
[[nodiscard]] std::vector<RunSpec> expand_runs(const SweepSpec& spec);

/// The concrete configuration run `run` executes: base with the cell's
/// parameters and the derived seed applied.
[[nodiscard]] ExperimentConfig make_run_config(const SweepSpec& spec,
                                               const RunSpec& run);

/// Execute every expanded run on `pool`. Results land in expansion order.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec, WorkerPool& pool);

/// Group a sweep's results by (cell, arm) — in expansion order — and
/// aggregate each group's replications.
[[nodiscard]] std::vector<ArmSummary> aggregate_sweep(const SweepSpec& spec,
                                                      const SweepResult& res);

}  // namespace scda::runner
