// scda_sweep — parallel multi-seed experiment sweeps from the command line.
//
// Expands {arms} x {grid cells} x {seeds} into independent simulation runs,
// shards them across a worker pool (one private Simulator per run), and
// prints one aggregated summary per (cell, arm): mean ± stddev [CI95] of
// the headline metrics, plus mean per-figure series in --json mode. The
// aggregated output is a pure function of the spec — byte-identical for
// any --workers value.
//
// Examples:
//   scda_sweep --workload pareto --seeds 8 --workers 4
//   scda_sweep --workload dc --seeds 4 --grid "tau=0.01,0.05,0.2"
//   scda_sweep --arms scda --seeds 16 --grid "k_factor=1,3;base_bps=2e8,5e8"
//   scda_sweep --seeds 8 --json > sweep.jsonl
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "runner/sweep.h"
#include "runner/worker_pool.h"
#include "sim/types.h"
#include "util/args.h"
#include "util/units.h"
#include "workload/generators.h"

using namespace scda;

namespace {

void usage() {
  std::puts(
      "scda_sweep — parallel multi-seed SCDA experiment sweeps\n"
      "\n"
      "  --workload video|video-noctrl|dc|pareto   (default pareto)\n"
      "  --arms both|scda|randtcp  systems to run (default both)\n"
      "  --seeds N                 replications per arm (default 4)\n"
      "  --workers N               worker threads (default: SCDA_WORKERS\n"
      "                            or all cores)\n"
      "  --grid SPEC               swept parameters, e.g.\n"
      "                            \"tau=0.01,0.05;k_factor=1,3\"\n"
      "  --duration SECONDS        arrival window (default 30)\n"
      "  --drain SECONDS           extra drain time (default 15)\n"
      "  --arrival-rate PER_SEC    workload arrival rate override\n"
      "  --read-fraction F         fraction of ops that are reads (0.3)\n"
      "  --base-mbps X             link base bandwidth X (default 200)\n"
      "  --k FACTOR                agg<->core bandwidth factor (default 3)\n"
      "  --agg N --tors N --servers N --clients N    topology shape\n"
      "  --tau SECONDS             control interval (default 0.05)\n"
      "  --fluid 0|1               hybrid fluid/packet mode (default 0;\n"
      "                            also available as a --grid axis)\n"
      "  --fluid-threshold-bytes B fluid/packet split point (default 1 MiB)\n"
      "  --churn 0|1               failure injection (default 0; also a\n"
      "                            --grid axis, as are server_mtbf_s,\n"
      "                            server_mttr_s, link_mtbf_s, link_mttr_s,\n"
      "                            nns_mtbf_s, nns_mttr_s, replicas,\n"
      "                            repair_priority, metadata_timeout_s,\n"
      "                            metadata_max_attempts,\n"
      "                            rebalance_interval_s, rebalance_priority)\n"
      "  --server-mtbf S           mean server up-time (0 = off)\n"
      "  --server-mttr S           mean server down-time (default 10)\n"
      "  --link-mtbf S             mean ToR-trunk up-time (0 = off)\n"
      "  --link-mttr S             mean ToR-trunk down-time (default 5)\n"
      "  --nns-mtbf S              mean name-node up-time (0 = off);\n"
      "                            enables NNS standby failover + retries\n"
      "  --nns-mttr S              mean name-node down-time (default 5)\n"
      "  --rebalance S             proactive rebalance scan interval\n"
      "                            (default 0 = off)\n"
      "  --replicas K              replica count target (default 2)\n"
      "  --replicate 0|1           replicate written content (default 0\n"
      "                            in sweeps; required for churn repair)\n"
      "  --seed N                  base RNG seed (replication r derives\n"
      "                            its seed from it; r0 uses it verbatim)\n"
      "  --json                    one JSON object per (cell, arm) instead\n"
      "                            of text summaries\n"
      "  --trace FILE              record a Chrome trace-event JSON of run\n"
      "                            index 0 (first arm, seed 0) to FILE;\n"
      "                            open with Perfetto (ui.perfetto.dev)\n");
}

/// --duration or --drain in seconds, or `def` when absent; refused when
/// negative.
double run_length(const util::ArgParser& args, const std::string& flag,
                  double def) {
  const double s = args.get_double(flag, def);
  if (s < 0)
    throw std::invalid_argument("--" + flag + " must be >= 0 s, got " +
                                args.get(flag));
  return s;
}

std::vector<runner::GridAxis> parse_grid(const std::string& spec) {
  std::vector<runner::GridAxis> grid;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string axis = spec.substr(start, end - start);
    start = end + 1;
    if (axis.empty()) continue;
    const std::size_t eq = axis.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("--grid: expected name=v1,v2,... in '" +
                                  axis + "'");
    runner::GridAxis ga;
    ga.param = axis.substr(0, eq);
    std::size_t vstart = eq + 1;
    while (vstart <= axis.size()) {
      std::size_t vend = axis.find(',', vstart);
      if (vend == std::string::npos) vend = axis.size();
      const std::string v = axis.substr(vstart, vend - vstart);
      vstart = vend + 1;
      if (v.empty()) continue;
      std::size_t pos = 0;
      double value = 0;
      try {
        value = std::stod(v, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      // No parameter takes an infinite or NaN value.
      if (pos != v.size() || !std::isfinite(value))
        throw std::invalid_argument("--grid: expected a finite number, got '" +
                                    v + "'");
      ga.values.push_back(value);
    }
    if (ga.values.empty())
      throw std::invalid_argument("--grid: axis '" + ga.param +
                                  "' has no values");
    grid.push_back(std::move(ga));
  }
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  if (args.has("help")) {
    usage();
    return 0;
  }

  try {
    runner::SweepSpec spec;
    runner::ExperimentConfig& cfg = spec.base;

    const std::string wl = args.get("workload", "pareto");
    cfg.name = wl + " sweep";
    cfg.topology.base_bps = util::mbps(args.get_double("base-mbps", 200));
    cfg.topology.k_factor = args.get_double("k", 3.0);
    cfg.topology.n_agg = static_cast<std::int32_t>(args.get_int("agg", 2));
    cfg.topology.tors_per_agg =
        static_cast<std::int32_t>(args.get_int("tors", 2));
    cfg.topology.servers_per_tor =
        static_cast<std::int32_t>(args.get_int("servers", 4));
    cfg.topology.n_clients =
        static_cast<std::int32_t>(args.get_int("clients", 16));
    cfg.params.tau = args.get_double("tau", 0.05);
    cfg.fluid.enabled = args.get_bool("fluid", false);
    cfg.fluid.threshold_bytes =
        args.get_int("fluid-threshold-bytes", cfg.fluid.threshold_bytes);
    cfg.churn.enabled = args.get_bool("churn", false);
    cfg.churn.server_mtbf_s = args.get_double("server-mtbf", 0.0);
    cfg.churn.server_mttr_s = args.get_double("server-mttr", 10.0);
    cfg.churn.link_mtbf_s = args.get_double("link-mtbf", 0.0);
    cfg.churn.link_mttr_s = args.get_double("link-mttr", 5.0);
    cfg.churn.nns_mtbf_s = args.get_double("nns-mtbf", 0.0);
    cfg.churn.nns_mttr_s = args.get_double("nns-mttr", 5.0);
    cfg.params.rebalance_interval_s = args.get_double("rebalance", 0.0);
    cfg.params.replicas = static_cast<std::int32_t>(
        args.get_int("replicas", cfg.params.replicas));
    cfg.enable_replication = args.get_bool("replicate", cfg.enable_replication);
    cfg.driver.end_time_s = run_length(args, "duration", 30.0);
    cfg.sim_time_s = cfg.driver.end_time_s + run_length(args, "drain", 15.0);
    if (!sim::SimTime::representable(cfg.sim_time_s))
      throw std::invalid_argument(
          "--duration + --drain is past the simulated time range (~292 "
          "years)");
    cfg.driver.read_fraction = args.get_double("read-fraction", 0.3);
    cfg.seed = static_cast<std::uint64_t>(
        args.get_int("seed", 0x5cda2013LL));

    const double rate = args.get_double(
        "arrival-rate", wl == "video" || wl == "video-noctrl" ? 2.0
                        : wl == "dc"                          ? 60.0
                                                              : 30.0);
    if (rate <= 0)
      throw std::invalid_argument(
          "--arrival-rate must be > 0 per second, got " +
          args.get("arrival-rate"));
    if (wl == "video" || wl == "video-noctrl") {
      const bool ctrl = wl == "video";
      cfg.make_generator = [rate, ctrl] {
        workload::VideoWorkloadConfig w;
        w.include_control_flows = ctrl;
        w.video_arrival_rate = rate;
        return std::make_unique<workload::VideoWorkload>(w);
      };
    } else if (wl == "dc") {
      cfg.make_generator = [rate] {
        workload::DatacenterWorkloadConfig w;
        w.arrival_rate = rate;
        return std::make_unique<workload::DatacenterWorkload>(w);
      };
    } else if (wl == "pareto") {
      cfg.make_generator = [rate] {
        workload::ParetoPoissonConfig w;
        w.arrival_rate = rate;
        return std::make_unique<workload::ParetoPoissonWorkload>(w);
      };
    } else {
      throw std::invalid_argument("unknown workload: " + wl);
    }

    const std::string arms = args.get("arms", "both");
    if (arms == "both" || arms == "scda")
      spec.arms.push_back({"SCDA", core::PlacementPolicy::kScda,
                           transport::TransportKind::kScda});
    if (arms == "both" || arms == "randtcp")
      spec.arms.push_back({"RandTCP", core::PlacementPolicy::kRandom,
                           transport::TransportKind::kTcp});
    if (spec.arms.empty())
      throw std::invalid_argument("unknown arms: " + arms);

    spec.seeds = static_cast<std::uint64_t>(args.get_int("seeds", 4));
    if (spec.seeds < 1) throw std::invalid_argument("--seeds must be >= 1");
    spec.grid = parse_grid(args.get("grid"));
    spec.trace_path = args.get("trace");

    const unsigned workers = args.has("workers")
                                 ? static_cast<unsigned>(
                                       args.get_int("workers", 1))
                                 : runner::default_workers();
    runner::WorkerPool pool(workers);

    const auto t0 = std::chrono::steady_clock::now();
    const runner::SweepResult res = runner::run_sweep(spec, pool);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const bool json = args.has("json");
    for (const runner::ArmSummary& s : runner::aggregate_sweep(spec, res)) {
      const std::string label = cfg.name + " " + s.label;
      if (json) {
        stats::emit_aggregate_json(stdout, label, s.agg);
      } else {
        stats::emit_aggregate_text(stdout, label, s.agg);
      }
    }
    // Timing goes to stderr so stdout stays a pure function of the spec
    // (the 1-vs-N-worker byte-identity check compares stdout).
    std::fprintf(stderr, "# %zu runs on %u workers in %.2f s\n",
                 res.runs.size(), pool.workers(), wall_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scda_sweep: %s\n", e.what());
    std::fprintf(stderr, "run with --help for usage\n");
    return 1;
  }
  return 0;
}
