// Tests for the adaptive priority controller (paper section IV-A):
// fixed-rate targets and EDF-style deadlines via weight adjustment.
#include <gtest/gtest.h>

#include "core/cloud.h"
#include "core/rate_allocator.h"
#include "core/target_rate.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace scda::core {
namespace {

/// Controller unit tests against a bare allocator on one bottleneck link.
class TargetRateTest : public ::testing::Test {
 protected:
  TargetRateTest() : net_(sim_) {
    a_ = net_.add_node(net::NodeRole::kClient);
    b_ = net_.add_node(net::NodeRole::kServer);
    net_.add_duplex(a_, b_, sim::BitRate{100e6}, 0.001, 1 << 20);
    net_.build_routes();
    params_.alpha = 1.0;
    alloc_ = std::make_unique<RateAllocator>(net_, params_);
    ctrl_ = std::make_unique<TargetRateController>(*alloc_);
  }

  /// One allocator+controller round; flows never drain in these tests.
  void settle(int rounds, double dt = 0.05) {
    for (int i = 0; i < rounds; ++i) {
      alloc_->tick();
      now_ += dt;
      ctrl_->update(sim::secs(now_),
                    [](net::FlowId) { return std::int64_t{1 << 30}; });
    }
  }

  sim::Simulator sim_;
  net::Network net_;
  net::NodeId a_{}, b_{};
  ScdaParams params_;
  std::unique_ptr<RateAllocator> alloc_;
  std::unique_ptr<TargetRateController> ctrl_;
  double now_ = 0;
};

TEST_F(TargetRateTest, FlowReachesFixedTargetUnderContention) {
  // 4 competing unit flows; the target flow wants 60 Mbps of the 100.
  for (net::FlowId f{1}; f <= net::FlowId{4}; ++f) {
    alloc_->register_flow(f, a_, b_);
  }
  ctrl_->set_target_rate(scda::net::FlowId{1}, sim::BitRate{60e6});
  settle(200);
  EXPECT_NEAR(alloc_->flow_rate(scda::net::FlowId{1}).bps(), 60e6, 3e6);
  // The rest share the remainder equally.
  EXPECT_NEAR(alloc_->flow_rate(scda::net::FlowId{2}).bps(), 40e6 / 3, 2e6);
}

TEST_F(TargetRateTest, InfeasibleTargetIsClampedNotDivergent) {
  for (net::FlowId f{1}; f <= net::FlowId{3}; ++f) {
    alloc_->register_flow(f, a_, b_);
  }
  ctrl_->set_target_rate(scda::net::FlowId{1}, sim::BitRate{500e6});  // above link capacity
  settle(300);
  // Priority is clamped; the flow gets the max-weight share, others the
  // floor share — and the allocator stays finite and positive.
  EXPECT_GT(alloc_->flow_rate(scda::net::FlowId{1}).bps(), 50e6);
  EXPECT_GT(alloc_->flow_rate(scda::net::FlowId{2}).bps(), 0.0);
  EXPECT_LE(alloc_->priority(scda::net::FlowId{1}),
            TargetRateController::kMaxPriority);
}

TEST_F(TargetRateTest, ClearStopsAdjusting) {
  alloc_->register_flow(scda::net::FlowId{1}, a_, b_);
  alloc_->register_flow(scda::net::FlowId{2}, a_, b_);
  ctrl_->set_target_rate(scda::net::FlowId{1}, sim::BitRate{80e6});
  settle(100);
  EXPECT_GT(alloc_->flow_rate(scda::net::FlowId{1}).bps(), 70e6);
  ctrl_->clear(scda::net::FlowId{1});
  EXPECT_FALSE(ctrl_->has_target(scda::net::FlowId{1}));
  alloc_->set_priority(scda::net::FlowId{1}, 1.0);
  settle(100);
  EXPECT_NEAR(alloc_->flow_rate(scda::net::FlowId{1}).bps(), 50e6, 2e6);
}

TEST_F(TargetRateTest, UnregisteredFlowsAreDropped) {
  alloc_->register_flow(scda::net::FlowId{1}, a_, b_);
  ctrl_->set_target_rate(scda::net::FlowId{1}, sim::BitRate{50e6});
  EXPECT_EQ(ctrl_->active(), 1u);
  alloc_->unregister_flow(scda::net::FlowId{1});
  settle(1);
  EXPECT_EQ(ctrl_->active(), 0u);
}

TEST_F(TargetRateTest, DeadlineTargetGrowsAsTimeShrinks) {
  alloc_->register_flow(scda::net::FlowId{1}, a_, b_);
  for (net::FlowId f{2}; f <= net::FlowId{6}; ++f) {
    alloc_->register_flow(f, a_, b_);
  }
  // 100 Mbit to move in 2 seconds -> needs ~50 Mbps on average.
  const std::int64_t total = util::bytes_of_bits(100e6);
  ctrl_->set_deadline(scda::net::FlowId{1}, 2.0);
  // Remaining bytes stay fixed in this unit test (flow never drains), so
  // the implied target rate must rise as the deadline approaches.
  alloc_->tick();
  ctrl_->update(sim::secs(0.1), [&](net::FlowId) { return total; });
  alloc_->tick();
  const double p_early = alloc_->priority(scda::net::FlowId{1});
  ctrl_->update(sim::secs(1.8), [&](net::FlowId) { return total; });
  alloc_->tick();
  const double p_late = alloc_->priority(scda::net::FlowId{1});
  EXPECT_GT(p_late, p_early);
}

TEST(CloudDeadline, WriteWithDeadlineFinishesOnTime) {
  sim::Simulator sim(3);
  CloudConfig cfg;
  cfg.topology.n_agg = 2;
  cfg.topology.tors_per_agg = 2;
  cfg.topology.servers_per_tor = 4;
  cfg.topology.n_clients = 8;
  cfg.topology.base_bps = util::mbps(200);
  cfg.enable_replication = false;
  Cloud cloud(sim, cfg);

  double deadline_fct = -1, besteffort_fct = -1;
  cloud.add_completion_callback(
      [&](const transport::FlowRecord& rec, const CloudOp& op) {
        if (op.content == 1) deadline_fct = rec.finish_time.seconds();
        if (op.content == 2) besteffort_fct = rec.finish_time.seconds();
      });

  // Heavy background from the same client; the deadline write must finish
  // by t=3 although fair sharing alone would miss it.
  for (int i = 0; i < 6; ++i)
    cloud.write(0, 10 + i, util::megabytes(20));
  cloud.write_with_deadline(0, 1, util::megabytes(20), /*deadline=*/3.0);
  cloud.write(0, 2, util::megabytes(20));
  sim.run_until(scda::sim::secs(60.0));

  ASSERT_GT(deadline_fct, 0);
  ASSERT_GT(besteffort_fct, 0);
  EXPECT_LE(deadline_fct, 3.3);  // small slack for control latency
  EXPECT_LT(deadline_fct, besteffort_fct);
}

// A deadline write that no server takes fails back to the client, and its
// deadline goes with it: the id's next, plain write runs at priority 1.
TEST(CloudDeadline, FailedDeadlineWriteLeavesNoDeadlineForTheRetry) {
  sim::Simulator sim(3);
  CloudConfig cfg;
  cfg.topology.n_agg = 1;
  cfg.topology.tors_per_agg = 1;
  cfg.topology.servers_per_tor = 2;
  cfg.topology.n_clients = 1;
  cfg.topology.base_bps = util::mbps(200);
  cfg.enable_replication = false;
  Cloud cloud(sim, cfg);

  for (std::size_t s = 0; s < cloud.servers().size(); ++s)
    cloud.fail_server(s);
  ASSERT_TRUE(cloud.write_with_deadline(0, 1, util::megabytes(50), 3.0));
  sim.run_until(scda::sim::secs(1.0));
  ASSERT_EQ(cloud.failed_writes(), 1u);
  ASSERT_EQ(cloud.transports().flow_count(), 0u);

  for (std::size_t s = 0; s < cloud.servers().size(); ++s)
    cloud.recover_server(s);
  ASSERT_TRUE(cloud.write(0, 1, util::megabytes(50)));
  sim.run_until(scda::sim::secs(1.6));
  ASSERT_EQ(cloud.transports().flow_count(), 1u);
  const transport::FlowRecord& rec = *cloud.transports().records().front();
  ASSERT_FALSE(rec.finished());
  EXPECT_DOUBLE_EQ(cloud.allocator().priority(rec.id), 1.0);
}

}  // namespace
}  // namespace scda::core
