// Shared experiment harness for the figure-reproduction benchmarks.
//
// Each bench binary configures a workload + topology, then runs the same
// experiment twice — once with SCDA (rate-metric placement + allocated-rate
// transport) and once with RandTCP (random placement + TCP NewReno, the
// VL2/Hedera-style baseline) — and prints the series the paper's figures
// plot, plus the headline SCDA-vs-RandTCP comparison.
//
// Execution goes through the sweep runner (src/runner): set
// SCDA_BENCH_SEEDS=N to replicate every arm over N deterministically
// derived seeds and print mean series with stddev/CI summaries, and
// SCDA_BENCH_WORKERS=M to shard the runs over M threads (default: all
// cores). Output is a pure function of the spec — worker count and
// completion order never change a byte. With SCDA_BENCH_SEEDS unset (one
// seed) the output is byte-identical to the historical sequential harness.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "runner/experiment.h"
#include "runner/sweep.h"
#include "runner/worker_pool.h"
#include "stats/aggregate.h"
#include "stats/emit.h"
#include "stats/metrics_collect.h"
#include "util/args.h"

namespace scda::bench {

using ExperimentConfig = runner::ExperimentConfig;
using RunResult = stats::RunResult;
using AfctBinning = runner::AfctBinning;

/// Flight-recorder trace path requested on the command line (--trace=FILE);
/// empty when tracing is off. Storage shared by init_cli/run_comparison.
inline std::string& trace_path() {
  static std::string path;
  return path;
}

/// Parse the common bench CLI. Every figure bench calls this first thing in
/// main(): `--trace=FILE` (or `--trace FILE`) records a Chrome trace-event
/// JSON of the first SCDA run (seed 0) to FILE; unknown arguments abort
/// with usage so typos do not silently run the default experiment.
inline void init_cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--trace=", 8) == 0) {
      trace_path() = a + 8;
    } else if (std::strcmp(a, "--trace") == 0 && i + 1 < argc) {
      trace_path() = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--trace=FILE]\n", argv[0]);
      std::exit(2);
    }
  }
}

/// Set SCDA_BENCH_QUICK=1 to run every experiment at 1/5 duration — handy
/// while iterating; the emitted series are proportionally shorter.
inline bool quick_mode() {
  const char* v = std::getenv("SCDA_BENCH_QUICK");
  return v != nullptr && v[0] == '1';
}

/// `parse()`'s value. A malformed environment variable ends the bench with
/// exit code 1 and the parser's message, which names the variable.
template <typename Parse>
auto env_or_exit(Parse&& parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(1);
  }
}

/// Replications per arm: SCDA_BENCH_SEEDS under the --seeds rule (a whole
/// number in [1, 4294967295]), or 1 when unset.
inline std::uint64_t bench_seeds() {
  return env_or_exit(
      [] { return runner::env_count("SCDA_BENCH_SEEDS").value_or(1u); });
}

/// Worker threads for the sweep (SCDA_BENCH_WORKERS, default SCDA_WORKERS
/// or all cores), each under the --workers rule.
inline unsigned bench_workers() {
  return env_or_exit([] {
    if (const auto n = runner::env_count("SCDA_BENCH_WORKERS")) return *n;
    return runner::default_workers();
  });
}

/// Set SCDA_BENCH_FLUID=1 to run the SCDA arms in hybrid fluid/packet mode
/// (docs/fluid_engine.md); SCDA_BENCH_FLUID_THRESHOLD overrides the
/// elephant byte threshold under the --fluid-threshold-bytes rule (a whole
/// number of 0 or more).
inline transport::FluidConfig bench_fluid() {
  transport::FluidConfig f;
  const char* v = std::getenv("SCDA_BENCH_FLUID");
  f.enabled = v != nullptr && v[0] == '1';
  if (const char* t = std::getenv("SCDA_BENCH_FLUID_THRESHOLD"))
    f.threshold_bytes = env_or_exit([t] {
      return util::parse_int("SCDA_BENCH_FLUID_THRESHOLD", t, 0,
                             std::numeric_limits<std::int64_t>::max());
    });
  return f;
}

inline ExperimentConfig quick_scaled(const ExperimentConfig& cfg_in) {
  ExperimentConfig cfg = cfg_in;
  if (quick_mode()) {
    cfg.driver.end_time_s /= 5.0;
    cfg.sim_time_s = cfg.driver.end_time_s + 15.0;
  }
  return cfg;
}

inline RunResult run_once(const ExperimentConfig& cfg_in,
                          core::PlacementPolicy placement,
                          transport::TransportKind transport,
                          const AfctBinning& binning) {
  return runner::run_once(quick_scaled(cfg_in), placement, transport, binning);
}

struct FigureIds {
  /// Figure numbers from the paper; -1 skips that series.
  int throughput_fig = -1;
  int cdf_fig = -1;
  int afct_fig = -1;
  double afct_size_unit = 1e6;
  const char* afct_unit_name = "MB";
};

namespace detail {

/// The historical single-seed report: per-run series, summaries, headline
/// comparison, and each arm's metrics snapshot.
inline void print_single(const ExperimentConfig& cfg, const FigureIds& figs,
                         const RunResult& scda_r, const RunResult& rand_r) {
  const auto label = [&](const char* base, const char* sys) {
    return cfg.name + " " + base + " (" + sys + ")";
  };

  if (figs.throughput_fig > 0) {
    std::printf("\n-- Figure %d: instantaneous average throughput --\n",
                figs.throughput_fig);
    stats::emit_throughput(stdout, label("inst thpt", "SCDA"),
                           scda_r.throughput);
    stats::emit_throughput(stdout, label("inst thpt", "RandTCP"),
                           rand_r.throughput);
  }
  if (figs.cdf_fig > 0) {
    std::printf("\n-- Figure %d: FCT CDF --\n", figs.cdf_fig);
    stats::emit_cdf(stdout, label("FCT CDF", "SCDA"), scda_r.fct_cdf);
    stats::emit_cdf(stdout, label("FCT CDF", "RandTCP"), rand_r.fct_cdf);
  }
  if (figs.afct_fig > 0) {
    std::printf("\n-- Figure %d: AFCT vs content size --\n", figs.afct_fig);
    stats::emit_afct(stdout, label("AFCT", "SCDA"), scda_r.afct,
                     figs.afct_size_unit, figs.afct_unit_name);
    stats::emit_afct(stdout, label("AFCT", "RandTCP"), rand_r.afct,
                     figs.afct_size_unit, figs.afct_unit_name);
  }

  std::printf("\n-- summary --\n");
  stats::emit_summary(stdout, "SCDA   ", scda_r.summary);
  stats::emit_summary(stdout, "RandTCP", rand_r.summary);
  std::printf("# SCDA mean inst thpt: %.1f KB/s, RandTCP: %.1f KB/s "
              "(over the arrival window)\n",
              scda_r.mean_throughput_kbs, rand_r.mean_throughput_kbs);
  if (rand_r.summary.goodput_bps > 0) {
    std::printf("# goodput: SCDA %.1f Mbps vs RandTCP %.1f Mbps "
                "(%.1f%% higher)\n",
                scda_r.summary.goodput_bps / 1e6,
                rand_r.summary.goodput_bps / 1e6,
                100.0 * (scda_r.summary.goodput_bps -
                         rand_r.summary.goodput_bps) /
                    rand_r.summary.goodput_bps);
  }
  stats::emit_comparison(stdout, scda_r.summary, rand_r.summary,
                         scda_r.mean_throughput_kbs,
                         rand_r.mean_throughput_kbs);
  std::printf("# flows: SCDA=%llu RandTCP=%llu; SLA violations (SCDA): %llu; "
              "events: %llu/%llu\n",
              static_cast<unsigned long long>(scda_r.flows_completed),
              static_cast<unsigned long long>(rand_r.flows_completed),
              static_cast<unsigned long long>(scda_r.sla_violations),
              static_cast<unsigned long long>(scda_r.events),
              static_cast<unsigned long long>(rand_r.events));
  stats::emit_metrics(stdout, scda_r.metrics);
  stats::emit_metrics(stdout, rand_r.metrics);
  std::printf("\n");
}

/// The replicated report: mean series per arm, mean ± stddev [CI95]
/// scalar summaries, headline comparison of the means.
inline void print_replicated(const ExperimentConfig& cfg,
                             const FigureIds& figs,
                             const runner::ArmSummary& scda_s,
                             const runner::ArmSummary& rand_s) {
  const auto label = [&](const char* base, const char* sys) {
    return cfg.name + " " + base + " (" + sys + ", mean of " +
           std::to_string(scda_s.agg.runs) + ")";
  };

  if (figs.throughput_fig > 0) {
    std::printf("\n-- Figure %d: instantaneous average throughput --\n",
                figs.throughput_fig);
    stats::emit_throughput(stdout, label("inst thpt", "SCDA"),
                           scda_s.agg.throughput);
    stats::emit_throughput(stdout, label("inst thpt", "RandTCP"),
                           rand_s.agg.throughput);
  }
  if (figs.cdf_fig > 0) {
    std::printf("\n-- Figure %d: FCT CDF (quantile-averaged) --\n",
                figs.cdf_fig);
    stats::emit_cdf(stdout, label("FCT CDF", "SCDA"), scda_s.agg.fct_cdf);
    stats::emit_cdf(stdout, label("FCT CDF", "RandTCP"), rand_s.agg.fct_cdf);
  }
  if (figs.afct_fig > 0) {
    std::printf("\n-- Figure %d: AFCT vs content size (pooled) --\n",
                figs.afct_fig);
    stats::emit_afct(stdout, label("AFCT", "SCDA"), scda_s.agg.afct,
                     figs.afct_size_unit, figs.afct_unit_name);
    stats::emit_afct(stdout, label("AFCT", "RandTCP"), rand_s.agg.afct,
                     figs.afct_size_unit, figs.afct_unit_name);
  }

  std::printf("\n-- summary --\n");
  stats::emit_aggregate_text(stdout, cfg.name + " SCDA", scda_s.agg);
  stats::emit_aggregate_text(stdout, cfg.name + " RandTCP", rand_s.agg);
  const double scda_gp = scda_s.agg.goodput_bps.mean;
  const double rand_gp = rand_s.agg.goodput_bps.mean;
  if (rand_gp > 0) {
    std::printf("# goodput: SCDA %.1f Mbps vs RandTCP %.1f Mbps "
                "(%.1f%% higher, means over %llu seeds)\n",
                scda_gp / 1e6, rand_gp / 1e6,
                100.0 * (scda_gp - rand_gp) / rand_gp,
                static_cast<unsigned long long>(scda_s.agg.runs));
  }
  stats::emit_aggregate_metrics(stdout, scda_s.agg);
  stats::emit_aggregate_metrics(stdout, rand_s.agg);
  std::printf("\n");
}

}  // namespace detail

/// Run both systems — replicated over SCDA_BENCH_SEEDS seeds, sharded over
/// SCDA_BENCH_WORKERS threads — and print every series of the experiment.
inline void run_comparison(const ExperimentConfig& cfg, const FigureIds& figs,
                           const AfctBinning& binning) {
  std::printf("==== %s ====\n", cfg.name.c_str());

  runner::SweepSpec spec;
  spec.base = quick_scaled(cfg);
  spec.base.fluid = bench_fluid();
  spec.binning = binning;
  spec.arms = {
      {"SCDA", core::PlacementPolicy::kScda, transport::TransportKind::kScda},
      {"RandTCP", core::PlacementPolicy::kRandom,
       transport::TransportKind::kTcp},
  };
  spec.seeds = bench_seeds();
  spec.trace_path = trace_path();  // first SCDA run (seed 0) records

  runner::WorkerPool pool(bench_workers());
  const runner::SweepResult res = runner::run_sweep(spec, pool);

  if (spec.seeds == 1) {
    detail::print_single(cfg, figs, res.results[0], res.results[1]);
    return;
  }
  const auto arms = runner::aggregate_sweep(spec, res);
  detail::print_replicated(cfg, figs, arms[0], arms[1]);
}

}  // namespace scda::bench
