// scda_sim — command-line experiment runner.
//
// Runs a workload against an SCDA or RandTCP cloud and writes the result
// series to CSV files (FCT CDF, AFCT-vs-size, throughput timeseries) plus
// a summary to stdout. This is the tool a user points at their own traces.
//
// Examples:
//   scda_sim --policy scda --workload video --duration 100 --out run1
//   scda_sim --policy randtcp --workload dc --k 1 --seed 7 --out base
//   scda_sim --workload trace --trace mytrace.csv --out replay
//   scda_sim --record-trace video_sample.csv --workload video --samples 1000
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/cloud.h"
#include "obs/observability.h"
#include "sim/types.h"
#include "stats/collector.h"
#include "stats/metrics_collect.h"
#include "stats/throughput.h"
#include "util/args.h"
#include "util/units.h"
#include "workload/driver.h"
#include "workload/generators.h"
#include "workload/trace.h"

using namespace scda;

namespace {

void usage() {
  std::puts(
      "scda_sim — SCDA cloud datacenter simulator\n"
      "\n"
      "  --policy scda|randtcp     placement + transport (default scda)\n"
      "  --workload video|video-noctrl|dc|pareto|trace   (default pareto)\n"
      "  --trace FILE              trace file for --workload trace\n"
      "  --duration SECONDS        arrival window (default 60)\n"
      "  --drain SECONDS           extra drain time (default 20)\n"
      "  --arrival-rate PER_SEC    workload arrival rate override\n"
      "  --read-fraction F         fraction of ops that are reads (0.3)\n"
      "  --base-mbps X             link base bandwidth X (default 500)\n"
      "  --k FACTOR                agg<->core bandwidth factor (default 3)\n"
      "  --agg N --tors N --servers N --clients N    topology shape\n"
      "  --tau SECONDS             control interval (default 0.05)\n"
      "  --metric exact|simplified rate metric (default exact)\n"
      "  --fluid 0|1               hybrid fluid/packet mode: elephants\n"
      "                            advance analytically between RA epochs\n"
      "                            (default 0; docs/fluid_engine.md)\n"
      "  --fluid-threshold-bytes B fluid/packet split point (default 1 MiB)\n"
      "  --rscale-mbps R           dormant-server threshold (default off)\n"
      "  --replicate 0|1           replicate written content (default 1)\n"
      "  --replicas K              replica count target (default 2)\n"
      "  --churn 0|1               failure injection (default 0;\n"
      "                            docs/scenarios.md)\n"
      "  --server-mtbf S           mean server up-time (0 = no stochastic\n"
      "                            server churn)\n"
      "  --server-mttr S           mean server down-time (default 10)\n"
      "  --link-mtbf S             mean ToR-trunk up-time (0 = off)\n"
      "  --link-mttr S             mean ToR-trunk down-time (default 5)\n"
      "  --nns-mtbf S              mean name-node up-time (0 = off);\n"
      "                            enables NNS standby failover + retries\n"
      "  --nns-mttr S              mean name-node down-time (default 5)\n"
      "  --rebalance S             proactive rebalance scan interval\n"
      "                            (default 0 = off; docs/scenarios.md)\n"
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

/// --arrival-rate per second, or `def` when absent; refused unless > 0.
double arrival_rate(const util::ArgParser& args, double def) {
  const double r = args.get_double("arrival-rate", def);
  if (r <= 0)
    throw std::invalid_argument("--arrival-rate must be > 0 per second, got " +
                                args.get("arrival-rate"));
  return r;
}

std::unique_ptr<workload::Generator> make_generator(
    const std::string& name, const util::ArgParser& args) {
  if (name == "video" || name == "video-noctrl") {
    workload::VideoWorkloadConfig w;
    w.include_control_flows = name == "video";
    w.video_arrival_rate = arrival_rate(args, 2.0);
    return std::make_unique<workload::VideoWorkload>(w);
  }
  if (name == "dc") {
    workload::DatacenterWorkloadConfig w;
    w.arrival_rate = arrival_rate(args, 60.0);
    return std::make_unique<workload::DatacenterWorkload>(w);
  }
  if (name == "pareto") {
    workload::ParetoPoissonConfig w;
    w.arrival_rate = arrival_rate(args, 50.0);
    return std::make_unique<workload::ParetoPoissonWorkload>(w);
  }
  if (name == "trace") {
    const std::string path = args.get("trace");
    if (path.empty())
      throw std::invalid_argument("--workload trace requires --trace FILE");
    return workload::TraceWorkload::from_file(path);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

void write_csv(const std::string& path, const std::string& header,
               const std::function<void(std::ofstream&)>& body) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << header << "\n";
  body(out);
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
    const std::string wl_name = args.get("workload", "pareto");

    if (args.has("record-trace")) {
      sim::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
      auto gen = make_generator(wl_name, args);
      const auto n = static_cast<std::size_t>(args.get_int("samples", 1000));
      workload::write_trace(args.get("record-trace"),
                            workload::sample_generator(*gen, rng, n));
      std::printf("recorded %zu %s requests to %s\n", n, wl_name.c_str(),
                  args.get("record-trace").c_str());
      return 0;
    }

    const std::string policy = args.get("policy", "scda");
    if (policy != "scda" && policy != "randtcp")
      throw std::invalid_argument("unknown policy: " + policy);
    const double duration_s = run_length(args, "duration", 60.0);
    const double drain_s = run_length(args, "drain", 20.0);
    if (!sim::SimTime::representable(duration_s + drain_s))
      throw std::invalid_argument(
          "--duration + --drain is past the simulated time range (~292 "
          "years)");

    sim::Simulator sim(static_cast<std::uint64_t>(args.get_int("seed", 1)));

    obs::Observability observ;
    const std::string trace_out = args.get("trace-out");
    if (!trace_out.empty()) observ.enable_trace();
    sim.set_observability(&observ);

    core::CloudConfig cfg;
    cfg.topology.base_bps = util::mbps(args.get_double("base-mbps", 500));
    cfg.topology.k_factor = args.get_double("k", 3.0);
    cfg.topology.n_agg = static_cast<std::int32_t>(args.get_int("agg", 4));
    cfg.topology.tors_per_agg =
        static_cast<std::int32_t>(args.get_int("tors", 5));
    cfg.topology.servers_per_tor =
        static_cast<std::int32_t>(args.get_int("servers", 8));
    cfg.topology.n_clients =
        static_cast<std::int32_t>(args.get_int("clients", 64));
    cfg.params.tau = args.get_double("tau", 0.05);
    cfg.params.rscale =
        util::mbps(args.get_double("rscale-mbps", 0.0));
    const std::string metric = args.get("metric", "exact");
    if (metric == "simplified") {
      cfg.params.metric = core::RateMetricKind::kSimplified;
    } else if (metric != "exact") {
      throw std::invalid_argument("unknown metric: " + metric);
    }
    cfg.enable_replication = args.get_bool("replicate", true);
    cfg.params.replicas = static_cast<std::int32_t>(
        args.get_int("replicas", cfg.params.replicas));
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
    if (args.has("kill")) {
      cfg.churn.scripted = sim::parse_kill_specs(args.get("kill"));
      // The Cloud's ChurnInjector range-checks the indices against the
      // run's census before the run starts.
      cfg.churn.enabled = true;
    }
    if (cfg.churn.enabled) cfg.churn.horizon_s = duration_s + drain_s;
    if (policy == "randtcp") {
      cfg.placement = core::PlacementPolicy::kRandom;
      cfg.transport = transport::TransportKind::kTcp;
    }

    core::Cloud cloud(sim, cfg);
    stats::FlowStatsCollector collector(cloud);
    stats::ThroughputSampler thpt(sim, cloud.transports(), 1.0);

    workload::DriverConfig dc;
    dc.end_time_s = duration_s;
    dc.read_fraction = args.get_double("read-fraction", 0.3);
    workload::WorkloadDriver driver(cloud, make_generator(wl_name, args),
                                    dc);
    driver.start();

    const double horizon = duration_s + drain_s;
    const auto events = sim.run_until(sim::secs(horizon));
    thpt.stop();

    const stats::Summary s = collector.summary();
    std::printf("policy=%s workload=%s duration=%.0fs seed=%lld\n",
                policy.c_str(), wl_name.c_str(), dc.end_time_s,
                static_cast<long long>(args.get_int("seed", 1)));
    std::printf(
        "flows=%llu mean_fct=%.3fs median=%.3fs p95=%.3fs goodput=%.1fMbps\n",
        static_cast<unsigned long long>(s.flows), s.mean_fct_s,
        s.median_fct_s, s.p95_fct_s, s.goodput_bps / 1e6);
    std::printf("sla_violations=%llu failed_reads=%llu energy=%.1fkJ "
                "events=%llu\n",
                static_cast<unsigned long long>(
                    cloud.allocator().sla_violations()),
                static_cast<unsigned long long>(cloud.failed_reads()),
                cloud.total_energy_j() / 1e3,
                static_cast<unsigned long long>(events));
    if (cfg.churn.enabled) {
      const core::ChurnStats& ch = cloud.churn_stats();
      std::printf(
          "churn: failovers=%llu aborted=%llu repairs=%llu/%llu "
          "repair_bytes=%.1fMB under_replicated=%.2fs lost=%llu\n",
          static_cast<unsigned long long>(ch.failovers),
          static_cast<unsigned long long>(ch.aborted_flows),
          static_cast<unsigned long long>(ch.repair_flows_completed),
          static_cast<unsigned long long>(ch.repair_flows_started),
          static_cast<double>(ch.repair_bytes) / 1e6,
          cloud.under_replicated_seconds(),
          static_cast<unsigned long long>(ch.objects_lost));
    }
    if (cloud.nns_failover_enabled()) {
      const core::MetadataStats& ms = cloud.meta_stats();
      std::printf(
          "metadata: timeouts=%llu retries=%llu failovers=%llu "
          "unavailable=%llu dropped=%llu mirrors=%llu resyncs=%llu/%llu\n",
          static_cast<unsigned long long>(ms.requests_timed_out),
          static_cast<unsigned long long>(ms.retries),
          static_cast<unsigned long long>(ms.failovers),
          static_cast<unsigned long long>(ms.unavailable),
          static_cast<unsigned long long>(ms.requests_dropped),
          static_cast<unsigned long long>(ms.mirror_updates),
          static_cast<unsigned long long>(ms.resyncs_completed),
          static_cast<unsigned long long>(ms.resyncs_started));
    }
    if (cloud.rebalance_enabled()) {
      const core::RebalanceStats& rs = cloud.rebalance_stats();
      std::printf(
          "rebalance: scans=%llu moves=%llu/%llu bytes=%.1fMB skipped=%llu\n",
          static_cast<unsigned long long>(rs.scans),
          static_cast<unsigned long long>(rs.flows_completed),
          static_cast<unsigned long long>(rs.flows_started),
          static_cast<double>(rs.bytes_moved) / 1e6,
          static_cast<unsigned long long>(rs.skipped));
    }

    if (args.get_bool("metrics", true)) {
      stats::collect_run_metrics(observ.metrics(), sim, cloud);
      stats::emit_metrics(stdout, observ.metrics().snapshot());
    }
    if (obs::TraceRecorder* tr = observ.tracer()) {
      if (!tr->write_file(trace_out))
        throw std::runtime_error("cannot write " + trace_out);
      std::printf("wrote %s (%llu events, %llu dropped)\n", trace_out.c_str(),
                  static_cast<unsigned long long>(tr->recorded()),
                  static_cast<unsigned long long>(tr->dropped()));
    }

    const std::string out = args.get("out");
    if (!out.empty()) {
      write_csv(out + "_cdf.csv", "fct_s,cdf", [&](std::ofstream& f) {
        for (const auto& p : collector.fct_cdf())
          f << p.x << ',' << p.p << '\n';
      });
      write_csv(out + "_afct.csv", "size_bytes,afct_s,flows",
                [&](std::ofstream& f) {
                  for (const auto& b : collector.afct_by_size(1e6, 100e6))
                    f << b.size_mid << ',' << b.afct_s << ',' << b.count
                      << '\n';
                });
      write_csv(out + "_thpt.csv", "time_s,kbytes_per_s",
                [&](std::ofstream& f) {
                  for (const auto& t : thpt.series())
                    f << t.time_s << ',' << t.kbytes_per_s << '\n';
                });
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scda_sim: %s\n", e.what());
    std::fprintf(stderr, "run with --help for usage\n");
    return 1;
  }
  return 0;
}
