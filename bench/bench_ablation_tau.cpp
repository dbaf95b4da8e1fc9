// Ablation: control-interval (tau) sensitivity.
//
// The paper suggests tau ~ the average or maximum RTT. Too small and the
// control plane reacts to noise (and costs more messages); too large and
// new flows ride stale allocations (slower convergence, bigger transients).
// We sweep tau under the Pareto/Poisson workload and report FCT, SLA
// transients, fairness of live allocations, and control overhead.
#include <cstdio>

#include "harness.h"
#include "util/units.h"

using namespace scda;

namespace {

struct TauResult {
  double mean_fct = 0;
  double p95_fct = 0;
  std::uint64_t sla = 0;
  std::uint64_t ctrl_msgs = 0;
};

TauResult run(double tau) {
  sim::Simulator sim(7);
  core::CloudConfig cfg;
  cfg.topology.n_agg = 2;
  cfg.topology.tors_per_agg = 2;
  cfg.topology.servers_per_tor = 4;
  cfg.topology.n_clients = 16;
  cfg.topology.base_bps = util::mbps(200);
  cfg.params.tau = tau;
  cfg.enable_replication = false;
  core::Cloud cloud(sim, cfg);
  stats::FlowStatsCollector col(cloud);

  workload::DriverConfig dc;
  dc.end_time_s = 30.0;
  workload::ParetoPoissonConfig pc;
  pc.arrival_rate = 30.0;
  pc.cap_bytes = 20 * 1000 * 1000;
  workload::WorkloadDriver driver(
      cloud, std::make_unique<workload::ParetoPoissonWorkload>(pc), dc);
  driver.start();
  sim.run_until(scda::sim::secs(50.0));

  TauResult r;
  const stats::Summary s = col.summary();
  r.mean_fct = s.mean_fct_s;
  r.p95_fct = s.p95_fct_s;
  r.sla = cloud.allocator().sla_violations();
  r.ctrl_msgs = cloud.control_messages();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  scda::bench::init_cli(argc, argv);
  std::printf("==== ablation: control interval tau sensitivity ====\n");
  std::printf("%-10s %-10s %-10s %-12s %-12s\n", "tau_ms", "mean_fct",
              "p95_fct", "sla_events", "ctrl_msgs");
  const std::vector<double> taus = {0.005, 0.01, 0.025, 0.05, 0.1, 0.2, 0.4};
  runner::WorkerPool pool(bench::bench_workers());
  const auto results = runner::parallel_map<TauResult>(
      pool, taus, [](double tau, std::size_t) { return run(tau); });
  for (std::size_t i = 0; i < taus.size(); ++i) {
    const TauResult& r = results[i];
    std::printf("%-10.0f %-10.3f %-10.3f %-12llu %-12llu\n", taus[i] * 1e3,
                r.mean_fct, r.p95_fct,
                static_cast<unsigned long long>(r.sla),
                static_cast<unsigned long long>(r.ctrl_msgs));
  }
  std::printf("# paper guidance: tau ~ mean RTT (intra-DC ~80 ms, WAN "
              "~200 ms here)\n");
  return 0;
}
