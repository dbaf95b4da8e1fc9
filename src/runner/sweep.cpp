#include "runner/sweep.h"

#include <cstdio>
#include <stdexcept>

#include "runner/seed_sequence.h"

namespace scda::runner {

namespace {

std::size_t cell_count(const SweepSpec& spec) {
  std::size_t n = 1;
  for (const GridAxis& a : spec.grid) n *= a.values.size();
  return n;
}

/// The (param, value) pairs of grid cell `cell` (first axis slowest).
std::vector<std::pair<std::string, double>> cell_params(const SweepSpec& spec,
                                                        std::size_t cell) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(spec.grid.size());
  std::size_t stride = cell_count(spec);
  for (const GridAxis& a : spec.grid) {
    stride /= a.values.size();
    out.emplace_back(a.param, a.values[(cell / stride) % a.values.size()]);
  }
  return out;
}

/// " param=value" for each of a cell's parameters.
std::string params_label(
    const std::vector<std::pair<std::string, double>>& params) {
  std::string out;
  char value[32];
  for (const auto& [param, v] : params) {
    std::snprintf(value, sizeof value, "%g", v);
    out += " " + param + "=" + value;
  }
  return out;
}

std::string run_name(const SweepSpec& spec, const RunSpec& r) {
  std::string n = spec.base.name + params_label(r.params) + " " +
                  spec.arms[r.arm_index].label;
  if (spec.seeds > 1) n += " r" + std::to_string(r.seed_index);
  return n;
}

}  // namespace

std::vector<RunSpec> expand_runs(const SweepSpec& spec) {
  if (spec.arms.empty())
    throw std::invalid_argument("expand_runs: spec has no arms");
  const std::uint64_t seeds = spec.seeds ? spec.seeds : 1;
  std::vector<RunSpec> runs;
  runs.reserve(cell_count(spec) * spec.arms.size() * seeds);
  for (std::size_t cell = 0; cell < cell_count(spec); ++cell) {
    const auto params = cell_params(spec, cell);
    for (std::size_t arm = 0; arm < spec.arms.size(); ++arm) {
      for (std::uint64_t s = 0; s < seeds; ++s) {
        RunSpec r;
        r.index = runs.size();
        r.cell_index = cell;
        r.arm_index = arm;
        r.seed_index = s;
        r.seed = derive_seed(spec.base.seed, s);
        r.params = params;
        r.name = run_name(spec, r);
        runs.push_back(std::move(r));
      }
    }
  }
  return runs;
}

ExperimentConfig make_run_config(const SweepSpec& spec, const RunSpec& run) {
  ExperimentConfig cfg = spec.base;
  for (const auto& [param, value] : run.params) apply_param(cfg, param, value);
  cfg.seed = run.seed;
  cfg.name = run.name;
  if (!spec.trace_path.empty() && run.index == 0)
    cfg.obs.trace_path = spec.trace_path;
  return cfg;
}

SweepResult run_sweep(const SweepSpec& spec, WorkerPool& pool) {
  SweepResult out;
  out.runs = expand_runs(spec);
  out.results.resize(out.runs.size());
  pool.run(out.runs.size(), [&](std::size_t i) {
    const RunSpec& r = out.runs[i];
    const Arm& arm = spec.arms[r.arm_index];
    out.results[i] = run_once(make_run_config(spec, r), arm.placement,
                              arm.transport, spec.binning);
  });
  return out;
}

std::vector<ArmSummary> aggregate_sweep(const SweepSpec& spec,
                                        const SweepResult& res) {
  const std::uint64_t seeds = spec.seeds ? spec.seeds : 1;
  std::vector<ArmSummary> out;
  const std::size_t cells = cell_count(spec);
  out.reserve(cells * spec.arms.size());
  std::size_t i = 0;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    for (std::size_t arm = 0; arm < spec.arms.size(); ++arm) {
      ArmSummary s;
      s.cell_index = cell;
      s.arm_index = arm;
      s.params = cell_params(spec, cell);
      s.label = spec.arms[arm].label + params_label(s.params);
      std::vector<const stats::RunResult*> group;
      group.reserve(seeds);
      for (std::uint64_t r = 0; r < seeds; ++r) {
        group.push_back(&res.results[i++]);
      }
      s.agg = stats::aggregate_runs(group);
      out.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace scda::runner
