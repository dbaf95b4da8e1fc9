#include "runner/experiment.h"

#include <cstdio>
#include <stdexcept>

#include "sim/simulator.h"
#include "stats/collector.h"
#include "stats/metrics_collect.h"
#include "stats/throughput.h"
#include "util/log.h"

namespace scda::runner {

stats::RunResult run_once(const ExperimentConfig& cfg,
                          core::PlacementPolicy placement,
                          transport::TransportKind transport,
                          const AfctBinning& binning) {
  sim::Simulator sim(cfg.seed);

  // Attach observability before the Cloud is built so construction-time
  // activity is visible to the flight recorder. The bundle lives on this
  // stack frame: it dies with the run, and the simulator only ever holds a
  // borrowed pointer.
  obs::Observability observ;
  if (!cfg.obs.trace_path.empty()) observ.enable_trace(cfg.obs.trace_capacity);
  sim.set_observability(&observ);

  core::CloudConfig cc;
  cc.topology = cfg.topology;
  cc.params = cfg.params;
  cc.placement = placement;
  cc.transport = transport;
  cc.enable_replication = cfg.enable_replication;
  cc.fluid = cfg.fluid;
  cc.churn = cfg.churn;
  if (cc.churn.enabled && cc.churn.horizon_s <= 0.0)
    cc.churn.horizon_s = cfg.sim_time_s;

  core::Cloud cloud(sim, cc);
  stats::FlowStatsCollector collector(cloud);
  if (!(cfg.throughput_interval_s > 0)) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "throughput_interval_s must be > 0 s, got %g",
                  cfg.throughput_interval_s);
    throw std::invalid_argument(msg);
  }
  stats::ThroughputSampler thpt(sim, cloud.transports(),
                                cfg.throughput_interval_s);

  workload::WorkloadDriver driver(cloud, cfg.make_generator(), cfg.driver);
  driver.start();

  stats::RunResult r;
  r.events = sim.run_until(sim::secs(cfg.sim_time_s));
  thpt.stop();

  r.summary = collector.summary();
  r.throughput = thpt.series();
  r.fct_cdf = collector.fct_cdf();
  r.afct = collector.afct_by_size(binning.bin_bytes, binning.max_bytes);
  // Mean instantaneous throughput over the arrival window (the paper's
  // figures span the 100 s of arrivals); the drain tail would otherwise
  // penalize the system that finishes its backlog *earlier*.
  {
    double sum = 0;
    std::size_t n = 0;
    for (const auto& s : r.throughput) {
      if (s.time_s <= cfg.driver.end_time_s) {
        sum += s.kbytes_per_s;
        ++n;
      }
    }
    r.mean_throughput_kbs = n ? sum / static_cast<double>(n) : 0.0;
  }
  r.sla_violations = cloud.allocator().sla_violations();
  r.failed_reads = cloud.failed_reads();
  r.energy_j = cloud.total_energy_j();
  r.flows_completed = collector.count();

  stats::collect_run_metrics(observ.metrics(), sim, cloud);
  r.metrics = observ.metrics().snapshot();
  if (obs::TraceRecorder* tr = observ.tracer()) {
    r.trace_written = tr->write_file(cfg.obs.trace_path);
    if (!r.trace_written)
      SCDA_LOG_ERROR("obs: cannot write trace file %s",
                     cfg.obs.trace_path.c_str());
  }
  sim.set_observability(nullptr);
  return r;
}

}  // namespace scda::runner
