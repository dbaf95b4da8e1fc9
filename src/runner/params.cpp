#include "runner/params.h"

#include <cmath>
#include <concepts>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "sim/types.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace scda::runner {

namespace {

/// A run length in seconds, refused below 0 s or past the simulated time
/// range, naming `name`.
double run_length(const char* name, double s) {
  if (s >= 0 && sim::SimTime::representable(s)) return s;
  char msg[160];
  std::snprintf(msg, sizeof msg, "%s %s, got %g", name,
                s < 0 ? "must be >= 0 s"
                      : "is past the simulated time range (~292 years)",
                s);
  throw std::invalid_argument(msg);
}

/// A run length, set under run_length()'s rule.
struct RunLength {
  double& seconds;
};

void set(const char*, double& f, double v) { f = v; }
void set(const char*, sim::BitRate& f, double v) { f = sim::BitRate{v}; }
void set(const char*, bool& f, double v) { f = v != 0; }
void set(const char* n, RunLength f, double v) { f.seconds = run_length(n, v); }

/// The one place a parameter's value becomes an integer: it must be a
/// whole number in T's range. Both bounds are powers of two, exact as
/// doubles; NaN fails every comparison.
template <std::signed_integral T>
void set(const char* name, T& field, double v) {
  using limits = std::numeric_limits<T>;
  constexpr double lo = static_cast<double>(limits::min());
  if (!(std::floor(v) >= v && v >= lo && v < -lo)) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "%s must be a whole number in [%lld, %lld], got %g", name,
                  static_cast<long long>(limits::min()),
                  static_cast<long long>(limits::max()), v);
    throw std::invalid_argument(msg);
  }
  field = static_cast<T>(v);
}

/// The table: calls visit(name, field) for every named parameter, and
/// visit(name, field, flag[, scale]) for the ones a flag both CLIs take
/// sets (to the flag's value times `scale`).
template <typename Visit>
void for_each_param(ExperimentConfig& c, Visit&& visit) {
  // Control plane (core::ScdaParams).
  visit("tau", c.params.tau, "tau");
  visit("alpha", c.params.alpha);
  visit("beta", c.params.beta);
  visit("rscale_bps", c.params.rscale);
  visit("rcvw_headroom", c.params.rcvw_headroom);
  visit("min_rate_bps", c.params.min_rate);
  visit("replicas", c.params.replicas, "replicas");
  visit("n_name_nodes", c.params.n_name_nodes);
  visit("nns_service_time_s", c.params.nns_service_time_s);
  visit("migration_interval_s", c.params.migration_interval_s);
  visit("repair_priority", c.params.repair_priority);
  visit("max_concurrent_repairs", c.params.max_concurrent_repairs);
  visit("metadata_timeout_s", c.params.metadata_timeout_s);
  visit("metadata_max_attempts", c.params.metadata_max_attempts);
  visit("rebalance_interval_s", c.params.rebalance_interval_s, "rebalance");
  visit("rebalance_priority", c.params.rebalance_priority);
  // Topology (net::TopologyConfig).
  visit("base_bps", c.topology.base_bps, "base-mbps", 1e6);
  visit("k_factor", c.topology.k_factor, "k");
  visit("n_agg", c.topology.n_agg, "agg");
  visit("tors_per_agg", c.topology.tors_per_agg, "tors");
  visit("servers_per_tor", c.topology.servers_per_tor, "servers");
  visit("n_clients", c.topology.n_clients, "clients");
  visit("queue_limit_bytes", c.topology.queue_limit_bytes);
  visit("dc_delay_s", c.topology.dc_delay_s);
  visit("wan_delay_s", c.topology.wan_delay_s);
  // Workload driver, run length and throughput sampling.
  visit("end_time_s", RunLength{c.driver.end_time_s});
  visit("sim_time_s", RunLength{c.sim_time_s});
  visit("read_fraction", c.driver.read_fraction, "read-fraction");
  visit("interactive_fraction", c.driver.interactive_fraction);
  visit("priority", c.driver.priority);
  visit("throughput_interval_s", c.throughput_interval_s);
  // Replication and the hybrid fluid/packet mode (docs/fluid_engine.md).
  visit("replicate", c.enable_replication, "replicate");
  visit("fluid", c.fluid.enabled, "fluid");
  visit("fluid_threshold_bytes", c.fluid.threshold_bytes,
        "fluid-threshold-bytes");
  // Failure injection: servers, ToR trunks, name nodes (docs/scenarios.md).
  visit("churn", c.churn.enabled, "churn");
  visit("server_mtbf_s", c.churn.server_mtbf_s, "server-mtbf");
  visit("server_mttr_s", c.churn.server_mttr_s, "server-mttr");
  visit("link_mtbf_s", c.churn.link_mtbf_s, "link-mtbf");
  visit("link_mttr_s", c.churn.link_mttr_s, "link-mttr");
  visit("nns_mtbf_s", c.churn.nns_mtbf_s, "nns-mtbf");
  visit("nns_mttr_s", c.churn.nns_mttr_s, "nns-mttr");
  visit("churn_horizon_s", c.churn.horizon_s);
}

}  // namespace

const char kSharedFlagsHelp[] =
    "  --read-fraction F         fraction of ops that are reads (0.3)\n"
    "  --k FACTOR                agg<->core bandwidth factor (default 3)\n"
    "  --agg N --tors N --servers N --clients N    topology shape\n"
    "  --tau SECONDS             control interval (default 0.05)\n"
    "  --fluid 0|1               hybrid fluid/packet mode: elephants\n"
    "                            advance analytically between RA epochs\n"
    "                            (default 0; docs/fluid_engine.md)\n"
    "  --fluid-threshold-bytes B fluid/packet split point (default 1 MiB)\n"
    "  --replicas K              replica count target (default 2)\n"
    "  --churn 0|1               failure injection (default 0;\n"
    "                            docs/scenarios.md)\n"
    "  --server-mtbf S           mean server up-time (0 = off)\n"
    "  --server-mttr S           mean server down-time (default 10)\n"
    "  --link-mtbf S             mean ToR-trunk up-time (0 = off)\n"
    "  --link-mttr S             mean ToR-trunk down-time (default 5)\n"
    "  --nns-mtbf S              mean name-node up-time (0 = off);\n"
    "                            enables NNS standby failover + retries\n"
    "  --nns-mttr S              mean name-node down-time (default 5)\n"
    "  --rebalance S             proactive rebalance scan interval\n"
    "                            (default 0 = off; docs/scenarios.md)\n";

void apply_param(ExperimentConfig& cfg, const std::string& name,
                 double value) {
  bool known = false;
  for_each_param(cfg, [&](const char* n, auto&& field,
                          const char* = nullptr, double = 1) {
    if (name != n) return;
    known = true;
    set(n, field, value);
  });
  if (!known)
    throw std::invalid_argument("unknown parameter '" + name + "'");
}

void apply_flags(const util::ArgParser& args, ExperimentConfig& cfg,
                 std::vector<std::string> own) {
  for_each_param(cfg, [&own](const char*, auto&&, const char* flag = nullptr,
                             double = 1) {
    if (flag != nullptr) own.emplace_back(flag);
  });
  args.refuse_unknown(own);
  for_each_param(cfg, [&args](const char* name, auto&& field,
                              const char* flag = nullptr, double scale = 1) {
    if (flag == nullptr || !args.has(flag)) return;
    using T = std::remove_cvref_t<decltype(field)>;
    const double v =
        std::is_same_v<T, bool> ? (args.get_bool(flag, false) ? 1 : 0)
        : std::is_integral_v<T> ? static_cast<double>(args.get_int(flag, 0))
                                : args.get_double(flag, 0) * scale;
    try {
      set(name, field, v);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("--" + std::string(flag) + ": " + e.what());
    }
  });
}

void apply_run_length(const util::ArgParser& args, ExperimentConfig& cfg,
                      double duration_s, double drain_s) {
  for (const char* flag : {"duration", "drain"})
    if (args.get_double(flag, 0) < 0)
      throw std::invalid_argument(std::string("--") + flag +
                                  " must be >= 0 s, got " + args.get(flag));
  cfg.driver.end_time_s = args.get_double("duration", duration_s);
  cfg.sim_time_s =
      run_length("--duration + --drain",
                 cfg.driver.end_time_s + args.get_double("drain", drain_s));
}

std::function<std::unique_ptr<workload::Generator>()> workload_factory(
    const util::ArgParser& args, const std::string& name,
    double pareto_rate) {
  if (name == "trace") {
    const std::string path = args.get("trace");
    if (path.empty())
      throw std::invalid_argument("--workload trace requires --trace FILE");
    return [path] { return workload::TraceWorkload::from_file(path); };
  }
  const bool video = name == "video" || name == "video-noctrl";
  const bool dc = name == "dc";
  if (!video && !dc && name != "pareto")
    throw std::invalid_argument("unknown workload: " + name);
  const double rate =
      args.get_double("arrival-rate", video ? 2.0 : dc ? 60.0 : pareto_rate);
  if (rate <= 0)
    throw std::invalid_argument("--arrival-rate must be > 0 per second, got " +
                                args.get("arrival-rate"));
  if (video) {
    const workload::VideoWorkloadConfig w{
        .include_control_flows = name == "video", .video_arrival_rate = rate};
    return [w] { return std::make_unique<workload::VideoWorkload>(w); };
  }
  if (dc) {
    const workload::DatacenterWorkloadConfig w{.arrival_rate = rate};
    return [w] { return std::make_unique<workload::DatacenterWorkload>(w); };
  }
  const workload::ParetoPoissonConfig w{.arrival_rate = rate};
  return [w] { return std::make_unique<workload::ParetoPoissonWorkload>(w); };
}

}  // namespace scda::runner
