// Tests for interactive sessions in the workload driver and for the
// end-of-run metrics snapshot of a Cloud.
#include <gtest/gtest.h>

#include "core/cloud.h"
#include "stats/metrics_collect.h"
#include "util/units.h"
#include "workload/driver.h"
#include "workload/generators.h"

namespace scda {
namespace {

core::CloudConfig small_cloud() {
  core::CloudConfig cfg;
  cfg.topology.n_agg = 2;
  cfg.topology.tors_per_agg = 2;
  cfg.topology.servers_per_tor = 2;
  cfg.topology.n_clients = 4;
  cfg.topology.base_bps = util::mbps(200);
  cfg.enable_replication = false;
  return cfg;
}

TEST(InteractiveSessions, SessionsIssueAppendsAndReads) {
  sim::Simulator sim(5);
  core::Cloud cloud(sim, small_cloud());
  std::uint64_t appends = 0, reads = 0;
  cloud.add_completion_callback(
      [&](const transport::FlowRecord&, const core::CloudOp& op) {
        if (op.kind == core::CloudOp::Kind::kAppend) ++appends;
        if (op.kind == core::CloudOp::Kind::kRead) ++reads;
      });

  workload::DriverConfig dc;
  dc.end_time_s = 10.0;
  dc.read_fraction = 0.0;
  dc.interactive_fraction = 1.0;  // every write starts a session
  dc.session_ops = 4;
  dc.session_gap_s = 1.0;
  workload::ParetoPoissonConfig pc;
  pc.arrival_rate = 1.0;
  pc.cap_bytes = 500 * 1000;
  workload::WorkloadDriver driver(
      cloud, std::make_unique<workload::ParetoPoissonWorkload>(pc), dc);
  driver.start();
  sim.run_until(scda::sim::secs(60.0));

  EXPECT_GT(driver.sessions_started(), 0u);
  EXPECT_EQ(driver.session_ops_issued(),
            driver.sessions_started() * 4u);
  EXPECT_GT(appends, 0u);
  EXPECT_GT(reads, 0u);
  // Sessions alternate evenly: half appends, half reads.
  EXPECT_EQ(appends, reads);
}

TEST(InteractiveSessions, SessionContentLearnsInteractiveClass) {
  sim::Simulator sim(7);
  core::Cloud cloud(sim, small_cloud());
  workload::DriverConfig dc;
  dc.end_time_s = 3.0;
  dc.read_fraction = 0.0;
  dc.interactive_fraction = 1.0;
  dc.session_ops = 8;
  dc.session_gap_s = 2.0;
  workload::ParetoPoissonConfig pc;
  pc.arrival_rate = 0.5;
  pc.cap_bytes = 200 * 1000;
  workload::WorkloadDriver driver(
      cloud, std::make_unique<workload::ParetoPoissonWorkload>(pc), dc);
  driver.start();
  sim.run_until(scda::sim::secs(40.0));
  ASSERT_GT(driver.sessions_started(), 0u);
  // Content 1 was session-driven: the classifier must see HWHR.
  EXPECT_EQ(cloud.classifier().classify(1, sim.now()),
            transport::ContentClass::kInteractive);
}

TEST(Snapshot, ReflectsCloudState) {
  sim::Simulator sim(11);
  core::Cloud cloud(sim, small_cloud());
  cloud.write(0, 1, util::megabytes(1));
  cloud.write(1, 2, util::megabytes(1));
  sim.run_until(scda::sim::secs(20.0));
  cloud.read(2, 1);
  sim.run_until(scda::sim::secs(40.0));
  cloud.fail_server(0, false);

  obs::MetricsRegistry reg;
  stats::collect_run_metrics(reg, sim, cloud);
  const obs::MetricsSnapshot s = reg.snapshot();
  EXPECT_DOUBLE_EQ(s.value("sim.time_s"), 40.0);
  EXPECT_DOUBLE_EQ(s.value("cloud.contents_stored"), 2.0);
  // 2 writes + 1 read (no replication)
  EXPECT_DOUBLE_EQ(s.value("transport.flows_completed"), 3.0);
  EXPECT_DOUBLE_EQ(s.value("cloud.failed_servers"), 1.0);
  ASSERT_TRUE(s.has("cloud.failed_reads"));
  EXPECT_DOUBLE_EQ(s.value("cloud.failed_reads"), 0.0);
  EXPECT_GT(s.value("cloud.energy_j"), 0.0);
  EXPECT_GT(s.value("cloud.control_messages"), 0.0);
  ASSERT_TRUE(s.has("cloud.mean_nns_delay_s"));
  EXPECT_GE(s.value("cloud.mean_nns_delay_s"), 0.0);
}

}  // namespace
}  // namespace scda
