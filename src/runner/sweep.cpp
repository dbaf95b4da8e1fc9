#include "runner/sweep.h"

#include <cstdio>
#include <stdexcept>

#include "runner/seed_sequence.h"
#include "sim/types.h"

namespace scda::runner {

namespace {

/// A run length from the grid, refused as scda-sweep refuses --duration
/// and --drain: below 0 s or past the simulated time range.
double run_length(const std::string& name, double s) {
  const char* broken = nullptr;
  if (s < 0)
    broken = "must be >= 0 s";
  else if (!sim::SimTime::representable(s))
    broken = "is past the simulated time range (~292 years)";
  if (broken == nullptr) return s;
  char msg[128];
  std::snprintf(msg, sizeof msg, "%s %s, got %g", name.c_str(), broken, s);
  throw std::invalid_argument(msg);
}

}  // namespace

void apply_param(ExperimentConfig& cfg, const std::string& name,
                 double value) {
  // Control plane (core::ScdaParams).
  if (name == "tau") { cfg.params.tau = value; return; }
  if (name == "alpha") { cfg.params.alpha = value; return; }
  if (name == "beta") { cfg.params.beta = value; return; }
  if (name == "rscale_bps") { cfg.params.rscale = sim::BitRate{value}; return; }
  if (name == "rcvw_headroom") { cfg.params.rcvw_headroom = value; return; }
  if (name == "min_rate_bps") {
    cfg.params.min_rate = sim::BitRate{value};
    return;
  }
  if (name == "replicas") {
    cfg.params.replicas = static_cast<std::int32_t>(value);
    return;
  }
  if (name == "n_name_nodes") {
    cfg.params.n_name_nodes = static_cast<std::int32_t>(value);
    return;
  }
  if (name == "nns_service_time_s") {
    cfg.params.nns_service_time_s = value;
    return;
  }
  if (name == "migration_interval_s") {
    cfg.params.migration_interval_s = value;
    return;
  }
  // Topology (net::TopologyConfig).
  if (name == "base_bps") { cfg.topology.base_bps = sim::BitRate{value}; return; }
  if (name == "k_factor") { cfg.topology.k_factor = value; return; }
  if (name == "n_agg") {
    cfg.topology.n_agg = static_cast<std::int32_t>(value);
    return;
  }
  if (name == "tors_per_agg") {
    cfg.topology.tors_per_agg = static_cast<std::int32_t>(value);
    return;
  }
  if (name == "servers_per_tor") {
    cfg.topology.servers_per_tor = static_cast<std::int32_t>(value);
    return;
  }
  if (name == "n_clients") {
    cfg.topology.n_clients = static_cast<std::int32_t>(value);
    return;
  }
  if (name == "queue_limit_bytes") {
    cfg.topology.queue_limit_bytes = static_cast<std::int64_t>(value);
    return;
  }
  if (name == "dc_delay_s") { cfg.topology.dc_delay_s = value; return; }
  if (name == "wan_delay_s") { cfg.topology.wan_delay_s = value; return; }
  // Workload driver / run length.
  if (name == "end_time_s") {
    cfg.driver.end_time_s = run_length(name, value);
    return;
  }
  if (name == "sim_time_s") {
    cfg.sim_time_s = run_length(name, value);
    return;
  }
  if (name == "read_fraction") { cfg.driver.read_fraction = value; return; }
  if (name == "interactive_fraction") {
    cfg.driver.interactive_fraction = value;
    return;
  }
  if (name == "priority") { cfg.driver.priority = value; return; }
  if (name == "throughput_interval_s") {
    cfg.throughput_interval_s = value;
    return;
  }
  // Hybrid fluid/packet mode (docs/fluid_engine.md).
  if (name == "fluid") { cfg.fluid.enabled = value != 0; return; }
  if (name == "fluid_threshold_bytes") {
    cfg.fluid.threshold_bytes = static_cast<std::int64_t>(value);
    return;
  }
  if (name == "replicate") { cfg.enable_replication = value != 0; return; }
  // Failure injection (docs/scenarios.md).
  if (name == "churn") { cfg.churn.enabled = value != 0; return; }
  if (name == "server_mtbf_s") { cfg.churn.server_mtbf_s = value; return; }
  if (name == "server_mttr_s") { cfg.churn.server_mttr_s = value; return; }
  if (name == "link_mtbf_s") { cfg.churn.link_mtbf_s = value; return; }
  if (name == "link_mttr_s") { cfg.churn.link_mttr_s = value; return; }
  if (name == "churn_horizon_s") { cfg.churn.horizon_s = value; return; }
  if (name == "repair_priority") {
    cfg.params.repair_priority = value;
    return;
  }
  if (name == "max_concurrent_repairs") {
    cfg.params.max_concurrent_repairs = static_cast<std::int32_t>(value);
    return;
  }
  // Metadata-plane fault tolerance + rebalancing (docs/scenarios.md).
  if (name == "nns_mtbf_s") { cfg.churn.nns_mtbf_s = value; return; }
  if (name == "nns_mttr_s") { cfg.churn.nns_mttr_s = value; return; }
  if (name == "metadata_timeout_s") {
    cfg.params.metadata_timeout_s = value;
    return;
  }
  if (name == "metadata_max_attempts") {
    cfg.params.metadata_max_attempts = static_cast<std::int32_t>(value);
    return;
  }
  if (name == "rebalance_interval_s") {
    cfg.params.rebalance_interval_s = value;
    return;
  }
  if (name == "rebalance_priority") {
    cfg.params.rebalance_priority = value;
    return;
  }
  throw std::invalid_argument("apply_param: unknown parameter '" + name + "'");
}

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

std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string run_name(const SweepSpec& spec, const RunSpec& r) {
  std::string n = spec.base.name;
  for (const auto& [param, value] : r.params)
    n += " " + param + "=" + format_value(value);
  n += " " + spec.arms[r.arm_index].label;
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
      s.label = spec.arms[arm].label;
      for (const auto& [param, value] : s.params)
        s.label += " " + param + "=" + format_value(value);
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
