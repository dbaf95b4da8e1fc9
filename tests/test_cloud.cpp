#include "core/cloud.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/units.h"
#include "workload/driver.h"
#include "workload/generators.h"

namespace scda::core {
namespace {

using transport::ContentClass;
using transport::FlowRecord;

CloudConfig small_config() {
  CloudConfig cfg;
  cfg.topology.n_agg = 2;
  cfg.topology.tors_per_agg = 2;
  cfg.topology.servers_per_tor = 4;
  cfg.topology.n_clients = 8;
  cfg.topology.base_bps = util::mbps(500);
  return cfg;
}

class CloudTest : public ::testing::Test {
 protected:
  void build(CloudConfig cfg) {
    sim_ = std::make_unique<sim::Simulator>(7);
    cloud_ = std::make_unique<Cloud>(*sim_, cfg);
    cloud_->add_completion_callback(
        [this](const FlowRecord& rec, const CloudOp& op) {
          done_.push_back({rec, op});
        });
  }

  std::vector<std::pair<FlowRecord, CloudOp>> done_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<Cloud> cloud_;

  [[nodiscard]] std::size_t count(CloudOp::Kind k) const {
    std::size_t n = 0;
    for (const auto& [rec, op] : done_)
      if (op.kind == k) ++n;
    return n;
  }
};

TEST_F(CloudTest, WriteCompletesAndStoresContent) {
  build(small_config());
  EXPECT_TRUE(cloud_->write(0, 1, util::megabytes(4)));
  sim_->run_until(scda::sim::secs(20.0));
  EXPECT_EQ(count(CloudOp::Kind::kWrite), 1u);
  // Written once, replicated once -> two servers hold the block.
  const auto* meta = cloud_->fes().dispatch_by_content(1).find(1);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->replicas.size(), 2u);
  EXPECT_EQ(count(CloudOp::Kind::kReplication), 1u);
  EXPECT_NE(meta->replicas[0], meta->replicas[1]);
  for (const auto s : meta->replicas)
    EXPECT_TRUE(cloud_->servers()[static_cast<std::size_t>(s)].has(1));
}

TEST_F(CloudTest, DuplicateContentIdRejected) {
  build(small_config());
  EXPECT_TRUE(cloud_->write(0, 1, 1000));
  EXPECT_FALSE(cloud_->write(1, 1, 2000));
}

TEST_F(CloudTest, InvalidArgumentsRejected) {
  build(small_config());
  EXPECT_FALSE(cloud_->write(/*client=*/999, 1, 1000));
  EXPECT_FALSE(cloud_->write(0, 2, 0));
  EXPECT_FALSE(cloud_->read(/*client=*/999, 1));
}

TEST_F(CloudTest, UnusableControlParametersRejectTheCloud) {
  // Each refused before any component is built from it, naming the field.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::function<void(CloudConfig&)>, std::string>>
      bad = {
          {[](CloudConfig& c) { c.params.tau = -1; }, "tau must be > 0, got -1"},
          {[](CloudConfig& c) { c.params.tau = 0; }, "tau must be > 0, got 0"},
          {[&](CloudConfig& c) { c.params.alpha = nan; },
           "alpha must be finite"},
          {[](CloudConfig& c) { c.params.replicas = -3; },
           "replicas must be >= 1, got -3"},
          {[](CloudConfig& c) { c.params.n_name_nodes = 0; },
           "n_name_nodes must be >= 1, got 0"},
          {[](CloudConfig& c) { c.params.metadata_max_attempts = 0; },
           "metadata_max_attempts must be >= 1, got 0"},
          {[](CloudConfig& c) { c.params.metadata_timeout_s = 0; },
           "metadata_timeout_s must be > 0, got 0"},
          {[](CloudConfig& c) { c.params.ctrl_dc_latency_s = -1e-3; },
           "ctrl_dc_latency_s must be >= 0, got -0.001"},
          {[](CloudConfig& c) { c.params.ctrl_wan_latency_s = -0.05; },
           "ctrl_wan_latency_s must be >= 0, got -0.05"},
          {[](CloudConfig& c) { c.params.nns_service_time_s = -1; },
           "nns_service_time_s must be >= 0, got -1"},
          {[](CloudConfig& c) { c.params.migration_interval_s = -2; },
           "migration_interval_s must be >= 0, got -2"},
          {[](CloudConfig& c) { c.params.rebalance_interval_s = -2; },
           "rebalance_interval_s must be >= 0, got -2"},
          {[&](CloudConfig& c) { c.params.rebalance_priority = nan; },
           "rebalance_priority must be finite"},
          {[](CloudConfig& c) { c.fluid.threshold_bytes = -1; },
           "fluid threshold_bytes must be >= 0, got -1"},
          {[](CloudConfig& c) { c.params.max_concurrent_repairs = -1; },
           "max_concurrent_repairs must be >= 0, got -1"},
      };
  for (const auto& [set, message] : bad) {
    CloudConfig cfg = small_config();
    set(cfg);
    sim::Simulator sim(1);
    try {
      Cloud cloud(sim, cfg);
      ADD_FAILURE() << "accepted: " << message;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(sim.queue().scheduled(), 0u) << message;
  }

  // The edge values committed runs use are accepted.
  CloudConfig cfg = small_config();
  cfg.params.ctrl_dc_latency_s = 0;
  cfg.params.ctrl_wan_latency_s = 0;
  cfg.params.nns_service_time_s = 0;
  cfg.params.n_name_nodes = 1;
  cfg.params.replicas = 1;
  cfg.params.max_concurrent_repairs = 1;
  build(cfg);
  EXPECT_TRUE(cloud_->write(0, 1, 1000));
  sim_->run_until(sim::secs(5.0));
  EXPECT_EQ(count(CloudOp::Kind::kWrite), 1u);
}

TEST_F(CloudTest, ReadAfterWriteRoundTrips) {
  build(small_config());
  cloud_->write(0, 42, util::megabytes(2));
  sim_->post_at(scda::sim::secs(10.0), [&] { cloud_->read(1, 42); });
  sim_->run_until(scda::sim::secs(30.0));
  ASSERT_EQ(count(CloudOp::Kind::kRead), 1u);
  for (const auto& [rec, op] : done_) {
    if (op.kind == CloudOp::Kind::kRead) {
      EXPECT_EQ(rec.size_bytes, util::megabytes(2));
      EXPECT_GT(rec.fct(), 0.0);
    }
  }
  const auto* meta = cloud_->fes().dispatch_by_content(42).find(42);
  EXPECT_EQ(meta->reads, 1u);
}

TEST_F(CloudTest, ReadOfUnknownContentFails) {
  build(small_config());
  cloud_->read(0, 777);
  sim_->run_until(scda::sim::secs(5.0));
  EXPECT_EQ(cloud_->failed_reads(), 1u);
  EXPECT_EQ(count(CloudOp::Kind::kRead), 0u);
}

TEST_F(CloudTest, RandTcpModeServesSameApi) {
  auto cfg = small_config();
  cfg.placement = PlacementPolicy::kRandom;
  cfg.transport = transport::TransportKind::kTcp;
  build(cfg);
  cloud_->write(0, 1, util::megabytes(1));
  sim_->post_at(scda::sim::secs(15.0), [&] { cloud_->read(1, 1); });
  sim_->run_until(scda::sim::secs(60.0));
  EXPECT_EQ(count(CloudOp::Kind::kWrite), 1u);
  EXPECT_EQ(count(CloudOp::Kind::kRead), 1u);
  EXPECT_EQ(count(CloudOp::Kind::kReplication), 1u);
}

TEST_F(CloudTest, ReplicationDisabledLeavesSingleCopy) {
  auto cfg = small_config();
  cfg.enable_replication = false;
  build(cfg);
  cloud_->write(0, 1, util::megabytes(1));
  sim_->run_until(scda::sim::secs(20.0));
  EXPECT_EQ(count(CloudOp::Kind::kReplication), 0u);
  const auto* meta = cloud_->fes().dispatch_by_content(1).find(1);
  EXPECT_EQ(meta->replicas.size(), 1u);
}

TEST_F(CloudTest, PriorityFlowFinishesFasterUnderContention) {
  // Two equal writes from different clients to a loaded cloud; the
  // prioritized one gets a larger share (section IV-A).
  build(small_config());
  for (int i = 0; i < 6; ++i)
    cloud_->write(static_cast<std::size_t>(i % 4), 100 + i,
                  util::megabytes(8), ContentClass::kSemiInteractive);
  cloud_->write(4, 1, util::megabytes(8), ContentClass::kSemiInteractive,
                /*priority=*/4.0);
  cloud_->write(5, 2, util::megabytes(8), ContentClass::kSemiInteractive,
                /*priority=*/1.0);
  sim_->run_until(scda::sim::secs(60.0));
  double fct_hi = -1, fct_lo = -1;
  for (const auto& [rec, op] : done_) {
    if (op.content == 1) fct_hi = rec.fct();
    if (op.content == 2) fct_lo = rec.fct();
  }
  ASSERT_GT(fct_hi, 0);
  ASSERT_GT(fct_lo, 0);
  EXPECT_LT(fct_hi, fct_lo);
}

TEST_F(CloudTest, ReservedFlowMeetsDeadlineUnderLoad) {
  build(small_config());
  // Background load.
  for (int i = 0; i < 8; ++i)
    cloud_->write(static_cast<std::size_t>(i % 8), 100 + i,
                  util::megabytes(10));
  // 4 MB with a 100 Mbps reservation: upper bound ~0.32 s + control
  // latency + convergence slack.
  cloud_->write(0, 1, util::megabytes(4), ContentClass::kSemiInteractive,
                1.0, /*reserved_bps=*/util::mbps(100));
  sim_->run_until(scda::sim::secs(60.0));
  for (const auto& [rec, op] : done_) {
    if (op.content == 1 && op.kind == CloudOp::Kind::kWrite) {
      EXPECT_LT(rec.fct(), 1.0);
    }
  }
}

TEST_F(CloudTest, ControlOverheadAccounted) {
  build(small_config());
  cloud_->write(0, 1, 100000);
  sim_->run_until(scda::sim::secs(5.0));
  EXPECT_GT(cloud_->control_messages(), 0u);
  EXPECT_GT(cloud_->control_bytes(), cloud_->control_messages());
}

TEST_F(CloudTest, EnergyAccumulates) {
  build(small_config());
  sim_->run_until(scda::sim::secs(2.0));
  const double e1 = cloud_->total_energy_j();
  EXPECT_GT(e1, 0.0);
  sim_->run_until(scda::sim::secs(4.0));
  EXPECT_GT(cloud_->total_energy_j(), e1);
}

TEST_F(CloudTest, PowerHeterogeneityApplied) {
  auto cfg = small_config();
  cfg.power_heterogeneity = 0.5;
  build(cfg);
  double lo = 1e9, hi = 0;
  for (const auto& s : cloud_->servers()) {
    lo = std::min(lo, s.power().inefficiency());
    hi = std::max(hi, s.power().inefficiency());
  }
  EXPECT_GE(lo, 1.0);
  EXPECT_LE(hi, 1.5);
  EXPECT_GT(hi - lo, 0.05);  // 16 draws almost surely spread
}

TEST_F(CloudTest, PassiveContentScalesServersDown) {
  auto cfg = small_config();
  cfg.params.rscale = util::mbps(400);
  build(cfg);
  cloud_->write(0, 1, util::megabytes(1), ContentClass::kPassive);
  sim_->run_until(scda::sim::secs(30.0));
  // The passive content's replica landed on a dormant-eligible server and
  // idle servers holding only passive content were scaled down.
  EXPECT_GT(cloud_->dormant_servers(), 0u);
}

TEST_F(CloudTest, ReadWakesDormantServer) {
  auto cfg = small_config();
  cfg.params.rscale = util::mbps(400);
  build(cfg);
  cloud_->write(0, 1, util::megabytes(1), ContentClass::kPassive);
  sim_->post_at(scda::sim::secs(20.0), [&] { cloud_->read(1, 1); });
  sim_->run_until(scda::sim::secs(60.0));
  EXPECT_EQ(count(CloudOp::Kind::kRead), 1u);
}

TEST_F(CloudTest, ScdaFlowsDeregisterOnCompletion) {
  build(small_config());
  cloud_->write(0, 1, util::megabytes(1));
  sim_->run_until(scda::sim::secs(20.0));
  EXPECT_EQ(cloud_->allocator().active_flows(), 0u);
}

TEST_F(CloudTest, SingleNameNodeModeWorks) {
  auto cfg = small_config();
  cfg.params.n_name_nodes = 1;
  build(cfg);
  for (int i = 0; i < 10; ++i)
    cloud_->write(static_cast<std::size_t>(i % 8), i + 1, 50000);
  sim_->run_until(scda::sim::secs(20.0));
  EXPECT_EQ(count(CloudOp::Kind::kWrite), 10u);
  EXPECT_EQ(cloud_->fes().nns_count(), 1u);
}

TEST_F(CloudTest, ManyContentsSpreadAcrossNameNodes) {
  build(small_config());
  for (int i = 0; i < 40; ++i)
    cloud_->write(static_cast<std::size_t>(i % 8), i + 1, 20000);
  sim_->run_until(scda::sim::secs(30.0));
  std::size_t nns_with_content = 0;
  for (std::size_t i = 0; i < cloud_->fes().nns_count(); ++i)
    if (cloud_->fes().node(i).content_count() > 0) ++nns_with_content;
  EXPECT_GE(nns_with_content, 2u);
}

TEST_F(CloudTest, ColdContentMigratesToDormantEligibleServer) {
  auto cfg = small_config();
  cfg.params.rscale = util::mbps(400);
  cfg.params.migration_interval_s = 5.0;
  cfg.enable_replication = false;
  build(cfg);
  // Written as semi-interactive but never accessed again: the classifier
  // learns it is passive and the migration scan moves it (section VII-C).
  cloud_->write(0, 1, util::megabytes(1),
                ContentClass::kSemiInteractive);
  sim_->run_until(scda::sim::secs(120.0));
  EXPECT_GE(cloud_->migrations_completed(), 1u);
  const auto* meta = cloud_->fes().dispatch_by_content(1).find(1);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->content_class, ContentClass::kPassive);
  ASSERT_EQ(meta->replicas.size(), 1u);  // moved, not copied
  EXPECT_TRUE(cloud_->servers()[static_cast<std::size_t>(meta->replicas[0])]
                  .has(1));
  // Exactly one server holds the block afterwards.
  std::size_t holders = 0;
  for (const auto& bs : cloud_->servers())
    if (bs.has(1)) ++holders;
  EXPECT_EQ(holders, 1u);
}

TEST_F(CloudTest, HotContentIsNotMigrated) {
  auto cfg = small_config();
  cfg.params.rscale = util::mbps(400);
  cfg.params.migration_interval_s = 5.0;
  cfg.enable_replication = false;
  build(cfg);
  cloud_->write(0, 1, util::kilobytes(256), ContentClass::kSemiInteractive);
  // Keep it hot: a read every 4 seconds.
  for (int i = 1; i <= 20; ++i) {
    sim_->post_at(scda::sim::secs(4.0 * i), [this] { cloud_->read(1, 1); });
  }
  sim_->run_until(scda::sim::secs(90.0));
  EXPECT_EQ(cloud_->migrations_completed(), 0u);
}

TEST_F(CloudTest, SetFlowPriorityIsSafeForUnknownFlows) {
  build(small_config());
  EXPECT_NO_THROW(cloud_->set_flow_priority(scda::net::FlowId{12345}, 2.0));
}

TEST(QueueSampler, ScdaKeepsQueuesNearEmptyUnderLoad) {
  // The paper's eq. 2 drains standing queues: with several concurrent
  // SCDA flows through one bottleneck the mean queue must stay far below
  // the drop-tail limit.
  sim::Simulator sim(3);
  CloudConfig cfg = small_config();
  cfg.topology.base_bps = util::mbps(200);
  cfg.enable_replication = false;
  Cloud cloud(sim, cfg);

  // Sample the client-0 uplink (shared bottleneck of 4 uploads) every
  // 10 ms.
  net::Network& net = cloud.topology().net();
  const net::Link& up = net.link(net.link_between(
      cloud.topology().clients()[0], cloud.topology().gateway()));
  double sum = 0;
  double max = 0;
  std::uint64_t samples = 0;
  scda::sim::PeriodicProcess sampler(sim, scda::sim::secs(0.01), [&] {
    const auto q = static_cast<double>(up.queue_bytes());
    sum += q;
    max = std::max(max, q);
    ++samples;
  });
  sampler.start(scda::sim::secs(0.01));

  for (int i = 0; i < 4; ++i) cloud.write(0, i + 1, util::megabytes(20));
  sim.run_until(scda::sim::secs(8.0));
  sampler.stop();

  const auto limit = static_cast<double>(cfg.topology.queue_limit_bytes);
  ASSERT_GT(samples, 0u);
  EXPECT_LT(sum / static_cast<double>(samples), 0.15 * limit);
  EXPECT_LT(max, limit);
}

TEST(ControlTrafficTest, OverheadIsTinyVersusLinkCapacity) {
  // Control RPCs are counted, not put on the wire: every tau each RM and
  // RA reports once, plus the request RPCs of figures 3-5. Over a loaded
  // 10 s run they stay far below one link's capacity.
  sim::Simulator sim(5);
  CloudConfig cfg = small_config();
  cfg.topology.servers_per_tor = 2;  // 8 servers, 4 tors, 2 aggs
  cfg.topology.n_clients = 2;
  cfg.topology.base_bps = util::mbps(100);
  Cloud cloud(sim, cfg);
  for (int i = 0; i < 8; ++i)
    cloud.write(static_cast<std::size_t>(i % 2), i + 1, util::kilobytes(256));
  sim.run_until(scda::sim::secs(5.0));
  for (int i = 0; i < 8; ++i)
    cloud.read(static_cast<std::size_t>(i % 2), i + 1);
  sim.run_until(scda::sim::secs(10.0));

  ASSERT_GT(cloud.control_messages(), 0u);
  const double bps = static_cast<double>(cloud.control_bytes()) * 8.0 / 10.0;
  EXPECT_LT(bps, 0.01 * cfg.topology.base_bps.bps());
}

// Census of the dormancy rule's input (section VII-C): whenever no flow is
// in flight, every server counts as active copies exactly the blocks it
// holds of content the name nodes list as non-passive. A migration moves
// one copy of a content and turns the content passive, so the copies it
// did not move must stop counting too, or their servers never scale down.
TEST(CloudCensus, ActiveCopiesMatchTheNameNodesAfterMigrations) {
  for (const double rebalance_s : {0.0, 2.0}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", rebalance_interval_s " +
                   std::to_string(static_cast<int>(rebalance_s)));
      sim::Simulator sim(seed);
      CloudConfig cfg = small_config();
      cfg.topology.base_bps = util::mbps(200);
      cfg.params.replicas = 2;
      cfg.params.rscale = util::mbps(50);
      cfg.params.migration_interval_s = 2.0;
      cfg.params.rebalance_interval_s = rebalance_s;
      Cloud cloud(sim, cfg);
      workload::ParetoPoissonConfig pc;
      pc.arrival_rate = 5.0;
      pc.cap_bytes = util::megabytes(20);
      workload::DriverConfig dc;
      dc.end_time_s = 40.0;
      dc.interactive_fraction = 0.3;
      workload::WorkloadDriver driver(
          cloud, std::make_unique<workload::ParetoPoissonWorkload>(pc), dc);
      driver.start();

      std::size_t censuses = 0;
      // Halfway between the 2 s scans: a move started by the last scan is
      // either in flight or has landed.
      for (double t = 41.0; t < 120.0; t += 2.0) {
        sim.run_until(scda::sim::secs(t));
        if (cloud.active_flows() != 0) continue;
        ++censuses;
        std::vector<std::int32_t> expected(cloud.servers().size(), 0);
        for (std::size_t shard = 0; shard < cloud.metadata().shard_count();
             ++shard) {
          const NameNode& nns = cloud.metadata().authority(shard);
          for (const ContentId id : nns.content_ids()) {
            if (nns.find(id)->content_class == ContentClass::kPassive)
              continue;
            for (std::size_t s = 0; s < expected.size(); ++s)
              if (cloud.servers()[s].has(id)) ++expected[s];
          }
        }
        for (std::size_t s = 0; s < expected.size(); ++s)
          EXPECT_EQ(cloud.servers()[s].active_copies(), expected[s])
              << "server " << s << " at " << t << " s";
      }
      EXPECT_GT(censuses, 0u);
      EXPECT_GT(cloud.migrations_completed(), 0u);
    }
  }
}

}  // namespace
}  // namespace scda::core
