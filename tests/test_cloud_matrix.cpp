// Configuration-matrix integration sweep: the full cloud must behave sanely
// across rate-metric kinds, placement policies, transports, topology shapes
// and NNS counts. Each cell runs a short mixed workload and asserts the
// cross-cutting invariants (completion, no failed reads, energy accrual,
// deterministic flow accounting).
#include <gtest/gtest.h>

#include <tuple>

#include "core/cloud.h"
#include "stats/collector.h"
#include "util/units.h"
#include "workload/driver.h"
#include "workload/generators.h"

namespace scda {
namespace {

using MatrixParam =
    std::tuple<core::RateMetricKind, core::PlacementPolicy, int /*shape*/,
               int /*n_nns*/>;

class CloudMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(CloudMatrix, ShortWorkloadRunsClean) {
  const auto [metric, placement, shape, n_nns] = GetParam();

  sim::Simulator sim(77);
  core::CloudConfig cfg;
  switch (shape) {
    case 0:  // small wide
      cfg.topology.n_agg = 1;
      cfg.topology.tors_per_agg = 2;
      cfg.topology.servers_per_tor = 4;
      break;
    case 1:  // deep
      cfg.topology.n_agg = 3;
      cfg.topology.tors_per_agg = 2;
      cfg.topology.servers_per_tor = 2;
      break;
    default:  // asymmetric-ish
      cfg.topology.n_agg = 2;
      cfg.topology.tors_per_agg = 3;
      cfg.topology.servers_per_tor = 3;
      cfg.topology.k_factor = 1.0;
      break;
  }
  cfg.topology.n_clients = 8;
  cfg.topology.base_bps = util::mbps(200);
  cfg.params.metric = metric;
  cfg.params.n_name_nodes = n_nns;
  cfg.placement = placement;
  cfg.transport = placement == core::PlacementPolicy::kScda
                      ? transport::TransportKind::kScda
                      : transport::TransportKind::kTcp;

  core::Cloud cloud(sim, cfg);
  stats::FlowStatsCollector col(cloud);

  workload::DriverConfig dc;
  dc.end_time_s = 8.0;
  dc.read_fraction = 0.4;
  workload::ParetoPoissonConfig pc;
  pc.arrival_rate = 8.0;
  pc.mean_bytes = 200e3;
  pc.cap_bytes = 5 * 1000 * 1000;
  workload::WorkloadDriver driver(
      cloud, std::make_unique<workload::ParetoPoissonWorkload>(pc), dc);
  driver.start();
  sim.run_until(scda::sim::secs(60.0));

  const stats::Summary s = col.summary();
  EXPECT_GT(s.flows, 20u) << "workload barely ran";
  EXPECT_EQ(cloud.failed_reads(), 0u);
  EXPECT_EQ(cloud.failed_writes(), 0u);
  EXPECT_GT(cloud.total_energy_j(), 0.0);
  EXPECT_GT(s.goodput_bps, 0.0);
  // All issued content ops completed (writes + replications + reads).
  EXPECT_EQ(cloud.active_flows(), 0u);
  // Every completed flow has a positive, finite FCT.
  for (const auto& r : col.records()) {
    EXPECT_GT(r.fct_s, 0.0);
    EXPECT_LT(r.fct_s, 60.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CloudMatrix,
    ::testing::Combine(
        ::testing::Values(core::RateMetricKind::kExact,
                          core::RateMetricKind::kSimplified),
        ::testing::Values(core::PlacementPolicy::kScda,
                          core::PlacementPolicy::kRandom),
        ::testing::Values(0, 1, 2), ::testing::Values(1, 4)));

}  // namespace
}  // namespace scda
