#include "core/selection.h"

#include <gtest/gtest.h>

#include "core/hierarchy.h"
#include "core/rate_allocator.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace scda::core {
namespace {

using transport::ContentClass;

class SelectionTest : public ::testing::Test {
 protected:
  SelectionTest() : rng_(99) {
    cfg_.n_agg = 2;
    cfg_.tors_per_agg = 2;
    cfg_.servers_per_tor = 2;  // 8 servers
    cfg_.n_clients = 4;
    cfg_.base_bps = sim::BitRate{100e6};
    topo_ = std::make_unique<net::ThreeTierTree>(sim_, cfg_);
    params_.alpha = 1.0;
    alloc_ = std::make_unique<RateAllocator>(topo_->net(), params_);
    hier_ = std::make_unique<Hierarchy>(*topo_, *alloc_);
    for (std::size_t s = 0; s < 8; ++s)
      servers_.emplace_back(s, topo_->servers()[s]);
    hier_->update();
  }

  ServerSelector make(PlacementPolicy pol) {
    return ServerSelector(*hier_, servers_, params_, rng_, pol);
  }

  /// Drive load onto server `s`'s access links so they become the
  /// bottleneck and their advertised per-flow rate drops. Flows terminate
  /// at the ToR so only the access links carry them.
  void load_server(std::size_t s, int flows = 4) {
    const net::NodeId tor =
        topo_->tors()[topo_->tor_of_server(s)];
    for (int f = 0; f < flows; ++f) {
      alloc_->register_flow(next_flow_++, topo_->servers()[s], tor);
      alloc_->register_flow(next_flow_++, tor, topo_->servers()[s]);
    }
    for (int i = 0; i < 50; ++i) alloc_->tick();
    hier_->update();
  }

  sim::Simulator sim_;
  sim::Rng rng_;
  net::TopologyConfig cfg_;
  ScdaParams params_;
  std::unique_ptr<net::ThreeTierTree> topo_;
  std::unique_ptr<RateAllocator> alloc_;
  std::unique_ptr<Hierarchy> hier_;
  std::vector<BlockServer> servers_;
  net::FlowId next_flow_ = scda::net::FlowId{1};
};

TEST_F(SelectionTest, ScdaAvoidsLoadedServerForWrites) {
  load_server(0);
  auto sel = make(PlacementPolicy::kScda);
  const auto t = sel.select_write_target(ContentClass::kSemiInteractive);
  ASSERT_GE(t, 0);
  EXPECT_NE(t, 0);
}

TEST_F(SelectionTest, RandomPolicyCoversAllServers) {
  auto sel = make(PlacementPolicy::kRandom);
  std::set<std::int32_t> seen;
  for (int i = 0; i < 300; ++i)
    seen.insert(sel.select_write_target(ContentClass::kSemiInteractive));
  EXPECT_EQ(seen.size(), 8u);
}

TEST_F(SelectionTest, ReplicaExcludesPrimary) {
  auto sel = make(PlacementPolicy::kScda);
  for (int i = 0; i < 20; ++i) {
    const auto r =
        sel.select_replica_target(ContentClass::kSemiInteractive, {3});
    EXPECT_NE(r, 3);
  }
  auto rnd = make(PlacementPolicy::kRandom);
  for (int i = 0; i < 50; ++i)
    EXPECT_NE(rnd.select_replica_target(ContentClass::kSemiInteractive, {3}),
              3);
}

TEST_F(SelectionTest, AdmitFilterRespected) {
  auto sel = make(PlacementPolicy::kScda);
  sel.set_admit_filter([](std::size_t s) { return s == 5; });
  EXPECT_EQ(sel.select_write_target(ContentClass::kSemiInteractive), 5);
  auto rnd = make(PlacementPolicy::kRandom);
  rnd.set_admit_filter([](std::size_t s) { return s == 6; });
  EXPECT_EQ(rnd.select_write_target(ContentClass::kSemiInteractive), 6);
}

TEST_F(SelectionTest, ReadReplicaPicksBestUplink) {
  load_server(1);  // degrade server 1's uplink
  auto sel = make(PlacementPolicy::kScda);
  const auto r = sel.select_read_replica({1, 6});
  EXPECT_EQ(r, 6);
}

TEST_F(SelectionTest, ReadReplicaEmptyListRejected) {
  auto sel = make(PlacementPolicy::kScda);
  EXPECT_EQ(sel.select_read_replica({}), -1);
}

TEST_F(SelectionTest, ReadReplicaSingleCandidate) {
  auto sel = make(PlacementPolicy::kScda);
  EXPECT_EQ(sel.select_read_replica({4}), 4);
}

TEST_F(SelectionTest, DormantServersReservedForPassiveReplicas) {
  params_.rscale = sim::BitRate{50e6};  // enable the dormant policy
  // Load all servers except 7 below R_scale; server 7 stays idle (100M).
  for (std::size_t s = 0; s < 7; ++s) load_server(s, 2);
  auto sel = make(PlacementPolicy::kScda);
  // Active content must avoid server 7 (uplink above R_scale).
  const auto active = sel.select_write_target(ContentClass::kInteractive);
  EXPECT_NE(active, 7);
  // Passive replicas go *to* the dormant-eligible server.
  const auto passive =
      sel.select_replica_target(ContentClass::kPassive, {active});
  EXPECT_EQ(passive, 7);
}

TEST_F(SelectionTest, PassiveFallsBackWhenNoDormantCandidate) {
  params_.rscale = sim::BitRate{1e3};  // nothing qualifies as dormant-eligible…
  // …because every uplink is far above 1 kbps, so active content has no
  // admissible server either; the fallback path must still pick one.
  auto sel = make(PlacementPolicy::kScda);
  const auto t = sel.select_write_target(ContentClass::kSemiInteractive);
  EXPECT_GE(t, 0);
}

TEST_F(SelectionTest, PowerAwareSelectionPrefersEfficientServer) {
  params_.power_aware = true;
  // Equal rates everywhere; make server 2 draw half the power of others.
  for (std::size_t s = 0; s < 8; ++s)
    servers_[s].power().record_sample(s == 2 ? 100.0 : 200.0, 1.0);
  auto sel = make(PlacementPolicy::kScda);
  EXPECT_EQ(sel.select_write_target(ContentClass::kSemiInteractive), 2);
}

TEST_F(SelectionTest, InteractiveUsesMinUpDown) {
  // Degrade only the downlink of server 4; min(up,down) drops, so
  // interactive selection must avoid it even though its uplink is pristine.
  for (int f = 0; f < 4; ++f)
    alloc_->register_flow(next_flow_++, topo_->clients()[0],
                          topo_->servers()[4]);
  for (int i = 0; i < 50; ++i) alloc_->tick();
  hier_->update();
  auto sel = make(PlacementPolicy::kScda);
  EXPECT_NE(sel.select_write_target(ContentClass::kInteractive), 4);
}

TEST(SelectionOneServer, RandomPickHonoursTheAdmitFilter) {
  // A lone server that fails the admission filter (failed, or its disk
  // full) must not receive a randomly placed write.
  sim::Simulator sim;
  net::TopologyConfig cfg;
  cfg.n_agg = 1;
  cfg.tors_per_agg = 1;
  cfg.servers_per_tor = 1;
  cfg.n_clients = 1;
  net::ThreeTierTree topo(sim, cfg);
  ScdaParams params;
  RateAllocator alloc(topo.net(), params);
  Hierarchy hier(topo, alloc);
  std::vector<BlockServer> servers;
  servers.emplace_back(0, topo.servers()[0]);
  sim::Rng rng(7);
  ServerSelector sel(hier, servers, params, rng, PlacementPolicy::kRandom);
  EXPECT_EQ(sel.select_write_target(ContentClass::kSemiInteractive), 0);
  sel.set_admit_filter([](std::size_t) { return false; });
  EXPECT_EQ(sel.select_write_target(ContentClass::kSemiInteractive), -1);
}

}  // namespace
}  // namespace scda::core
