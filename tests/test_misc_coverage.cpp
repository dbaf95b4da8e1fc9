// Assorted edge-case coverage across modules: units, hierarchy level
// queries, cloud append failures, SJF-with-loss interaction, and priority
// reads.
#include <gtest/gtest.h>

#include "core/cloud.h"
#include "core/hierarchy.h"
#include "net/link.h"
#include "util/units.h"

namespace scda {
namespace {

using transport::ContentClass;

// --- units -------------------------------------------------------------------

TEST(Units, ConversionsAreExact) {
  static_assert(util::milliseconds(10) == 0.01);
  static_assert(util::mbps(500).bps() == 500e6);
  static_assert(util::gbps(1.5).bps() == 1.5e9);
  EXPECT_EQ(util::megabytes(8), 8'000'000);
  EXPECT_EQ(util::kilobytes(2.5), 2'500);
  EXPECT_DOUBLE_EQ(util::bits_of_bytes(1000), 8000.0);
  EXPECT_EQ(util::bytes_of_bits(8000.0), 1000);
}

// --- hierarchy level queries -------------------------------------------------

TEST(HierarchyLevels, LowerLevelIgnoresCoreCongestion) {
  sim::Simulator sim(1);
  net::TopologyConfig tc;
  tc.n_agg = 2;
  tc.tors_per_agg = 2;
  tc.servers_per_tor = 2;
  tc.n_clients = 2;
  tc.base_bps = sim::BitRate{100e6};
  tc.core_gw_mult = 1.0;  // make the core-gw link the tight spot
  net::ThreeTierTree topo(sim, tc);
  core::ScdaParams params;
  params.alpha = 1.0;
  core::RateAllocator alloc(topo.net(), params);
  core::Hierarchy hier(topo, alloc);

  // Saturate the core->gw uplink with many flows.
  for (net::FlowId f{1}; f <= net::FlowId{8}; ++f)
    alloc.register_flow(f, topo.servers()[f.index() % 8],
                        topo.clients()[0]);
  for (int i = 0; i < 60; ++i) alloc.tick();
  hier.update();

  // At hmax every server's uplink value is capped by the core link; at
  // the RMs (R-hat^0) the access links still advertise their full rate.
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_LT(hier.server_value_up(s).bps(), 40e6);
    EXPECT_GT(hier.rm_rhat_up(s).bps(), 80e6);
  }
}

// --- cloud append edge cases -------------------------------------------------

core::CloudConfig tiny_cloud() {
  core::CloudConfig cfg;
  cfg.topology.n_agg = 1;
  cfg.topology.tors_per_agg = 2;
  cfg.topology.servers_per_tor = 2;
  cfg.topology.n_clients = 2;
  cfg.topology.base_bps = util::mbps(200);
  cfg.enable_replication = false;
  return cfg;
}

TEST(CloudAppend, UnknownContentCountsAsFailedWrite) {
  sim::Simulator sim(2);
  core::Cloud cloud(sim, tiny_cloud());
  EXPECT_TRUE(cloud.append(0, /*content=*/99, 1000));  // accepted async...
  sim.run_until(scda::sim::secs(5.0));
  EXPECT_EQ(cloud.failed_writes(), 1u);  // ...but fails at the NNS
}

TEST(CloudAppend, InvalidArgumentsRejectedSynchronously) {
  sim::Simulator sim(2);
  core::Cloud cloud(sim, tiny_cloud());
  EXPECT_FALSE(cloud.append(999, 1, 1000));
  EXPECT_FALSE(cloud.append(0, 1, 0));
}

TEST(CloudAppend, GrowsStoredSizeAndMetadata) {
  sim::Simulator sim(3);
  core::Cloud cloud(sim, tiny_cloud());
  cloud.write(0, 1, util::kilobytes(100));
  sim.run_until(scda::sim::secs(5.0));
  cloud.append(1, 1, util::kilobytes(50));
  sim.run_until(scda::sim::secs(10.0));
  const auto* meta = cloud.fes().dispatch_by_content(1).find(1);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->size_bytes, util::kilobytes(150));
  EXPECT_EQ(meta->writes, 2u);
  const auto primary = static_cast<std::size_t>(meta->replicas.front());
  EXPECT_EQ(cloud.servers()[primary].stored_bytes(1),
            util::kilobytes(150));
}

TEST(CloudRead, PriorityReadsFinishFasterUnderContention) {
  sim::Simulator sim(4);
  auto cfg = tiny_cloud();
  core::Cloud cloud(sim, cfg);
  cloud.write(0, 1, util::megabytes(5));
  sim.run_until(scda::sim::secs(10.0));
  double hi = -1, lo = -1;
  cloud.add_completion_callback(
      [&](const transport::FlowRecord& rec, const core::CloudOp& op) {
        if (op.kind != core::CloudOp::Kind::kRead) return;
        if (rec.priority > 1.0) {
          hi = rec.fct();
        } else {
          lo = rec.fct();
        }
      });
  // Two concurrent reads of the same 5 MB content from the same client:
  // the prioritized one must finish first.
  cloud.read(1, 1, /*priority=*/4.0);
  cloud.read(1, 1, /*priority=*/1.0);
  sim.run_until(scda::sim::secs(60.0));
  ASSERT_GT(hi, 0);
  ASSERT_GT(lo, 0);
  EXPECT_LT(hi, lo);
}

// --- SJF discipline under loss -----------------------------------------------

TEST(SjfWithLoss, FlowsCompleteWithBothFeaturesActive) {
  sim::Simulator sim(5);
  net::Network net(sim);
  const auto a = net.add_node(net::NodeRole::kClient);
  const auto b = net.add_node(net::NodeRole::kServer);
  auto [ab, ba] = net.add_duplex(a, b, sim::BitRate{20e6}, 0.005, 64 * 1500);
  (void)ba;
  net.build_routes();
  net.link(ab).set_discipline(net::QueueDiscipline::kSjf);
  net.link(ab).set_error_model(0.01, &sim.rng());
  transport::TransportManager tm(net);
  int done = 0;
  tm.set_completion_callback([&](const transport::FlowRecord&) { ++done; });
  tm.start_tcp_flow(a, b, 2'000'000);
  tm.start_tcp_flow(a, b, 100'000);
  tm.start_scda_flow(a, b, 500'000, sim::BitRate{5e6}, sim::BitRate{5e6});
  sim.run_until(scda::sim::secs(300.0));
  EXPECT_EQ(done, 3);
}

}  // namespace
}  // namespace scda
