// scda_sim — command-line experiment runner.
//
// Runs a workload against an SCDA or RandTCP cloud and writes the result
// series to CSV files (FCT CDF, AFCT-vs-size, throughput timeseries) plus
// a summary to stdout. This is the tool a user points at their own traces.
// The run goes through runner::run_once, as scda-sweep's runs do, and the
// flags the two tools share set the same parameters (runner/params.h).
//
// Examples:
//   scda_sim --policy scda --workload video --duration 100 --out run1
//   scda_sim --policy randtcp --workload dc --k 1 --seed 7 --out base
//   scda_sim --workload trace --trace mytrace.csv --out replay
//   scda_sim --record-trace video_sample.csv --workload video --samples 1000
#include <cstdio>
#include <fstream>
#include <string>

#include "runner/experiment.h"
#include "runner/params.h"
#include "sim/rng.h"
#include "stats/metrics_collect.h"
#include "util/args.h"
#include "util/units.h"
#include "workload/trace.h"

using namespace scda;

namespace {

void usage() {
  std::fputs(
      "scda_sim — SCDA cloud datacenter simulator\n"
      "\n"
      "  --policy scda|randtcp     placement + transport (default scda)\n"
      "  --workload video|video-noctrl|dc|pareto|trace   (default pareto)\n"
      "  --trace FILE              trace file for --workload trace\n"
      "  --duration SECONDS        arrival window (default 60)\n"
      "  --drain SECONDS           extra drain time (default 20)\n"
      "  --arrival-rate PER_SEC    workload arrival rate override\n"
      "  --base-mbps X             link base bandwidth X (default 500)\n"
      "  --replicate 0|1           replicate written content (default 1)\n"
      "  --metric exact|simplified rate metric (default exact)\n"
      "  --rscale-mbps R           dormant-server threshold (default off)\n",
      stdout);
  std::fputs(runner::kSharedFlagsHelp, stdout);
  std::puts(
      "  --kill SPEC               outage server|link|pod|nns:IDX@AT[+DUR]\n"
      "                            e.g. --kill pod:0@30+20 (repeatable via\n"
      "                            comma: server:3@30+5,nns:0@30+20)\n"
      "  --seed N                  RNG seed\n"
      "  --out PREFIX              write PREFIX_{cdf,afct,thpt}.csv\n"
      "  --trace-out FILE          record a Chrome trace-event JSON of the\n"
      "                            run to FILE (open with ui.perfetto.dev;\n"
      "                            --trace names an *input* workload trace)\n"
      "  --metrics 0|1             print metrics snapshot line (default 1)\n"
      "  --record-trace FILE       sample the workload into FILE and exit\n"
      "  --samples N               --record-trace records (default 1000)\n");
}

/// Write `rows` to `path` under `header`, one `row(out, r)` line each.
template <typename Rows, typename Row>
void write_csv(const std::string& path, const char* header, const Rows& rows,
               Row row) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << header << '\n';
  for (const auto& r : rows) {
    row(out, r);
    out << '\n';
  }
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  if (args.has("help")) {
    usage();
    return 0;
  }

  try {
    // scda-sim's defaults are the structs' own, but for replication.
    runner::ExperimentConfig cfg;
    cfg.enable_replication = true;
    runner::apply_flags(
        args, cfg,
        {"policy", "workload", "trace", "duration", "drain", "arrival-rate",
         "metric", "rscale-mbps", "kill", "seed", "out", "trace-out",
         "metrics", "record-trace", "samples"});
    const std::string wl_name = args.get("workload", "pareto");
    cfg.make_generator = runner::workload_factory(args, wl_name, 50.0);
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    if (args.has("record-trace")) {
      sim::Rng rng(cfg.seed);
      const std::size_t n = args.get_count("samples", 1000);
      workload::write_trace(
          args.get("record-trace"),
          workload::sample_generator(*cfg.make_generator(), rng, n));
      std::printf("recorded %zu %s requests to %s\n", n, wl_name.c_str(),
                  args.get("record-trace").c_str());
      return 0;
    }

    const std::string policy = args.get("policy", "scda");
    const bool randtcp = policy == "randtcp";
    if (!randtcp && policy != "scda")
      throw std::invalid_argument("unknown policy: " + policy);
    runner::apply_run_length(args, cfg, 60.0, 20.0);
    cfg.params.rscale = util::mbps(args.get_double("rscale-mbps", 0.0));
    const std::string metric = args.get("metric", "exact");
    if (metric != "exact" && metric != "simplified")
      throw std::invalid_argument("unknown metric: " + metric);
    if (metric == "simplified")
      cfg.params.metric = core::RateMetricKind::kSimplified;
    if (args.has("kill")) {
      cfg.churn.scripted = sim::parse_kill_specs(args.get("kill"));
      // The Cloud's ChurnInjector range-checks the indices against the
      // run's census before the run starts.
      cfg.churn.enabled = true;
    }
    cfg.obs.trace_path = args.get("trace-out");
    const stats::RunResult r = runner::run_once(
        cfg,
        randtcp ? core::PlacementPolicy::kRandom : core::PlacementPolicy::kScda,
        randtcp ? transport::TransportKind::kTcp
                : transport::TransportKind::kScda,
        {.bin_bytes = 1e6, .max_bytes = 100e6});

    const stats::Summary& s = r.summary;
    std::printf("policy=%s workload=%s duration=%.0fs seed=%lld\n",
                policy.c_str(), wl_name.c_str(), cfg.driver.end_time_s,
                static_cast<long long>(cfg.seed));
    std::printf(
        "flows=%llu mean_fct=%.3fs median=%.3fs p95=%.3fs goodput=%.1fMbps\n",
        static_cast<unsigned long long>(s.flows), s.mean_fct_s,
        s.median_fct_s, s.p95_fct_s, s.goodput_bps / 1e6);
    std::printf("sla_violations=%llu failed_reads=%llu energy=%.1fkJ "
                "events=%llu\n",
                static_cast<unsigned long long>(r.sla_violations),
                static_cast<unsigned long long>(r.failed_reads),
                r.energy_j / 1e3, static_cast<unsigned long long>(r.events));
    // The feature lines read the run's metrics catalog.
    const obs::MetricsSnapshot& m = r.metrics;
    const auto n = [&m](const char* id) {
      return static_cast<unsigned long long>(m.value(id));
    };
    if (cfg.churn.enabled)
      std::printf(
          "churn: failovers=%llu aborted=%llu repairs=%llu/%llu "
          "repair_bytes=%.1fMB under_replicated=%.2fs lost=%llu\n",
          n("churn.failovers"), n("churn.aborted_flows"),
          n("churn.repair_flows_completed"), n("churn.repair_flows_started"),
          m.value("churn.repair_bytes") / 1e6,
          m.value("churn.under_replicated_seconds"), n("churn.objects_lost"));
    if (sim::nns_churn_configured(cfg.churn))
      std::printf(
          "metadata: timeouts=%llu retries=%llu failovers=%llu "
          "unavailable=%llu dropped=%llu mirrors=%llu resyncs=%llu/%llu\n",
          n("metadata.requests_timed_out"), n("metadata.retries"),
          n("metadata.failovers"), n("metadata.unavailable"),
          n("metadata.requests_dropped"), n("metadata.mirror_updates"),
          n("metadata.resyncs_completed"), n("metadata.resyncs_started"));
    if (cfg.params.rebalance_interval_s > 0)
      std::printf(
          "rebalance: scans=%llu moves=%llu/%llu bytes=%.1fMB skipped=%llu\n",
          n("rebalance.scans"), n("rebalance.flows_completed"),
          n("rebalance.flows_started"), m.value("rebalance.bytes_moved") / 1e6,
          n("rebalance.skipped"));

    if (args.get_bool("metrics", true)) stats::emit_metrics(stdout, m);
    const std::string& trace_out = cfg.obs.trace_path;
    if (!trace_out.empty()) {
      if (!r.trace_written)
        throw std::runtime_error("cannot write " + trace_out);
      std::printf("wrote %s (%llu events, %llu dropped)\n", trace_out.c_str(),
                  n("trace.events.recorded"), n("trace.events.dropped"));
    }

    const std::string out = args.get("out");
    if (!out.empty()) {
      write_csv(out + "_cdf.csv", "fct_s,cdf", r.fct_cdf,
                [](std::ostream& f, const auto& p) { f << p.x << ',' << p.p; });
      write_csv(out + "_afct.csv", "size_bytes,afct_s,flows", r.afct,
                [](std::ostream& f, const auto& b) {
                  f << b.size_mid << ',' << b.afct_s << ',' << b.count;
                });
      write_csv(out + "_thpt.csv", "time_s,kbytes_per_s", r.throughput,
                [](std::ostream& f, const auto& t) {
                  f << t.time_s << ',' << t.kbytes_per_s;
                });
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scda_sim: %s\n", e.what());
    std::fprintf(stderr, "run with --help for usage\n");
    return 1;
  }
  return 0;
}
