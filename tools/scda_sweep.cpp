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
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "runner/sweep.h"
#include "runner/worker_pool.h"
#include "util/args.h"
#include "util/units.h"

using namespace scda;

namespace {

void usage() {
  std::fputs(
      "scda_sweep — parallel multi-seed SCDA experiment sweeps\n"
      "\n"
      "  --workload video|video-noctrl|dc|pareto   (default pareto)\n"
      "  --arms both|scda|randtcp  systems to run (default both)\n"
      "  --seeds N                 replications per arm (default 4)\n"
      "  --workers N               worker threads (default: SCDA_WORKERS\n"
      "                            or all cores)\n"
      "  --grid SPEC               swept parameters, e.g.\n"
      "                            \"tau=0.01,0.05;k_factor=1,3\"; any name\n"
      "                            of the parameter table (docs/scenarios.md)\n"
      "  --duration SECONDS        arrival window (default 30)\n"
      "  --drain SECONDS           extra drain time (default 15)\n"
      "  --arrival-rate PER_SEC    workload arrival rate override\n"
      "  --base-mbps X             link base bandwidth X (default 200)\n"
      "  --replicate 0|1           replicate written content (default 0\n"
      "                            in sweeps; required for churn repair)\n",
      stdout);
  std::fputs(runner::kSharedFlagsHelp, stdout);
  std::puts(
      "  --seed N                  base RNG seed (replication r derives\n"
      "                            its seed from it; r0 uses it verbatim)\n"
      "  --json                    one JSON object per (cell, arm) instead\n"
      "                            of text summaries\n"
      "  --trace FILE              record a Chrome trace-event JSON of run\n"
      "                            index 0 (first arm, seed 0) to FILE;\n"
      "                            open with Perfetto (ui.perfetto.dev)\n");
}

/// The --grid spec "name=v1,v2;name=v3". Each name and value goes through
/// the parameter table, so a bad one is refused before any run starts.
std::vector<runner::GridAxis> parse_grid(const std::string& spec) {
  std::vector<runner::GridAxis> grid;
  runner::ExperimentConfig scratch;
  std::istringstream axes(spec);
  for (std::string axis; std::getline(axes, axis, ';');) {
    if (axis.empty()) continue;
    const std::size_t eq = axis.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("--grid: expected name=v1,v2,... in '" +
                                  axis + "'");
    runner::GridAxis ga{axis.substr(0, eq), {}};
    std::istringstream values(axis.substr(eq + 1));
    for (std::string v; std::getline(values, v, ',');) {
      if (v.empty()) continue;
      // No parameter takes an infinite or NaN value.
      const double value = util::parse_finite("--grid", v);
      runner::apply_param(scratch, ga.param, value);
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
    // scda-sweep's defaults: a smaller, slower tree than the structs'.
    cfg.topology = {.n_agg = 2, .tors_per_agg = 2, .servers_per_tor = 4,
                    .n_clients = 16, .base_bps = util::mbps(200)};
    runner::apply_flags(args, cfg,
                        {"workload", "arms", "seeds", "workers", "grid",
                         "duration", "drain", "arrival-rate", "seed", "json",
                         "trace"});
    runner::apply_run_length(args, cfg, 30.0, 15.0);
    cfg.seed = static_cast<std::uint64_t>(
        args.get_int("seed", static_cast<std::int64_t>(cfg.seed)));
    // --trace names the sweep's trace output, so no workload trace is read.
    if (wl == "trace") throw std::invalid_argument("unknown workload: " + wl);
    cfg.make_generator = runner::workload_factory(args, wl, 30.0);

    const std::string arms = args.get("arms", "both");
    if (arms == "both" || arms == "scda")
      spec.arms.push_back({"SCDA", core::PlacementPolicy::kScda,
                           transport::TransportKind::kScda});
    if (arms == "both" || arms == "randtcp")
      spec.arms.push_back({"RandTCP", core::PlacementPolicy::kRandom,
                           transport::TransportKind::kTcp});
    if (spec.arms.empty())
      throw std::invalid_argument("unknown arms: " + arms);

    spec.seeds = args.get_count("seeds", 4);
    spec.grid = parse_grid(args.get("grid"));
    spec.trace_path = args.get("trace");

    runner::WorkerPool pool(
        args.get_count("workers", runner::default_workers()));

    const auto t0 = std::chrono::steady_clock::now();
    const runner::SweepResult res = runner::run_sweep(spec, pool);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const auto emit = args.has("json") ? stats::emit_aggregate_json
                                       : stats::emit_aggregate_text;
    for (const runner::ArmSummary& s : runner::aggregate_sweep(spec, res))
      emit(stdout, cfg.name + " " + s.label, s.agg);
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
