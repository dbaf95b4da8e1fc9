#include "core/hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/selection.h"
#include "net/topology.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace scda::core {
namespace {

using transport::ContentClass;

/// Small 2x2x2 tree: 8 servers, X = 100 Mbps, K = 2.
class HierarchyTest : public ::testing::Test {
 protected:
  HierarchyTest() {
    cfg_.n_agg = 2;
    cfg_.tors_per_agg = 2;
    cfg_.servers_per_tor = 2;
    cfg_.n_clients = 2;
    cfg_.base_bps = sim::BitRate{100e6};
    cfg_.k_factor = 2.0;
    topo_ = std::make_unique<net::ThreeTierTree>(sim_, cfg_);
    params_.alpha = 1.0;
    alloc_ = std::make_unique<RateAllocator>(topo_->net(), params_);
    for (std::size_t s = 0; s < topo_->servers().size(); ++s)
      servers_.emplace_back(s, topo_->servers()[s]);
    hier_ = std::make_unique<Hierarchy>(*topo_, *alloc_, servers_);
    sla_ = std::make_unique<SlaManager>(topo_->net());
  }

  /// The top RA's answer to the NNS: the argmax over this R-hat table.
  ServerSelector selector() {
    return ServerSelector(*hier_, servers_, params_, *sla_, sim_,
                          PlacementPolicy::kScda);
  }

  sim::Simulator sim_;
  net::TopologyConfig cfg_;
  ScdaParams params_;
  std::unique_ptr<net::ThreeTierTree> topo_;
  std::unique_ptr<RateAllocator> alloc_;
  std::vector<BlockServer> servers_;
  std::unique_ptr<Hierarchy> hier_;
  std::unique_ptr<SlaManager> sla_;
};

TEST_F(HierarchyTest, IdleNetworkValuesEqualLinkCapacityChainMin) {
  hier_->update();
  // All idle: R-hat^0 = 100M (access link rate).
  EXPECT_DOUBLE_EQ(hier_->rm_rhat_up(0).bps(), 100e6);
  // R-hat^hmax: ToR uplink 100M, agg uplink 200M and core uplink 600M keep
  // the min at 100M in both directions.
  EXPECT_DOUBLE_EQ(hier_->server_value_up(0).bps(), 100e6);
  EXPECT_DOUBLE_EQ(hier_->server_value_down(0).bps(), 100e6);
}

TEST_F(HierarchyTest, ROtherCapsServerValue) {
  // Server 2 is disk-limited to 30M; the rest keep their default R_other,
  // far above the 100M links.
  servers_[2].resources().set_disk(sim::BitRate{30e6});
  hier_->update();
  EXPECT_DOUBLE_EQ(hier_->rm_rhat_up(2).bps(), 30e6);
  EXPECT_DOUBLE_EQ(hier_->server_value_up(2).bps(), 30e6);
  EXPECT_DOUBLE_EQ(hier_->server_value_down(2).bps(), 30e6);
  EXPECT_DOUBLE_EQ(hier_->rm_rhat_up(3).bps(), 100e6);
}

TEST_F(HierarchyTest, FailedServerReadsZeroUntilTheNextUpdate) {
  servers_[4].set_failed(true);
  hier_->update();
  EXPECT_EQ(hier_->rm_rhat_up(4).bps(), 0.0);
  EXPECT_EQ(hier_->server_value_up(4).bps(), 0.0);
  EXPECT_EQ(hier_->server_value_down(4).bps(), 0.0);
  EXPECT_DOUBLE_EQ(hier_->server_value_up(5).bps(), 100e6);
  // A recovery shows in the table only once the control loop recomputes it.
  servers_[4].set_failed(false);
  EXPECT_EQ(hier_->server_value_up(4).bps(), 0.0);
  hier_->update();
  EXPECT_DOUBLE_EQ(hier_->rm_rhat_up(4).bps(), 100e6);
  EXPECT_DOUBLE_EQ(hier_->server_value_up(4).bps(), 100e6);
  EXPECT_DOUBLE_EQ(hier_->server_value_down(4).bps(), 100e6);
}

TEST_F(HierarchyTest, BestServerPrefersUnloaded) {
  // Load server 0's uplink with flows so its rate drops; the best-uplink
  // server must be someone else.
  for (net::FlowId f{1}; f <= net::FlowId{4}; ++f)
    alloc_->register_flow(f, topo_->servers()[0], topo_->clients()[0]);
  for (int i = 0; i < 50; ++i) alloc_->tick();
  hier_->update();
  const std::int32_t b = selector().select_replica_target(
      ContentClass::kSemiInteractive, {});
  ASSERT_GE(b, 0);
  EXPECT_NE(b, 0);
  EXPECT_GT(hier_->server_value_up(static_cast<std::size_t>(b)).bps(),
            hier_->server_value_up(0).bps());
}

TEST_F(HierarchyTest, BestServerMinUpDownUsesWorseDirection) {
  // Load only server 0's access uplink (the flows end at its ToR). Every
  // downlink stays idle, so a downlink ranking ties and takes index 0;
  // min(up, down) sees the loaded uplink.
  const net::NodeId tor = topo_->tors()[topo_->tor_of_server(0)];
  for (net::FlowId f{1}; f <= net::FlowId{4}; ++f)
    alloc_->register_flow(f, topo_->servers()[0], tor);
  for (int i = 0; i < 50; ++i) alloc_->tick();
  hier_->update();
  const double min_v = std::min(hier_->server_value_up(0).bps(),
                                hier_->server_value_down(0).bps());
  EXPECT_LT(min_v, 100e6);
  ServerSelector sel = selector();
  EXPECT_EQ(sel.select_write_target(ContentClass::kSemiInteractive), 0);
  EXPECT_EQ(sel.select_write_target(ContentClass::kInteractive), 1);
}

TEST_F(HierarchyTest, FilteredSelectionHonoursPredicate) {
  // The admission rule filters: servers 0-5 have failed since the table
  // was computed, so their rates still read their links.
  hier_->update();
  for (std::size_t s = 0; s < 6; ++s) servers_[s].set_failed(true);
  EXPECT_EQ(selector().select_replica_target(ContentClass::kSemiInteractive,
                                             {}),
            6);
}

TEST_F(HierarchyTest, FilteredSelectionAllRejectedGivesInvalid) {
  hier_->update();
  for (BlockServer& bs : servers_) bs.resources().set_capacity_bytes(0);
  ServerSelector sel = selector();
  EXPECT_EQ(sel.select_replica_target(ContentClass::kSemiInteractive, {}),
            -1);
  EXPECT_EQ(sel.select_write_target(ContentClass::kSemiInteractive), -1);
}

TEST_F(HierarchyTest, ReweightChangesWinner) {
  // Power-aware ranking (section VII-D) divides each rate by the server's
  // mean power: every server but 5 draws 1,000 times its power.
  params_.power_aware = true;
  for (std::size_t s = 0; s < servers_.size(); ++s)
    servers_[s].power().record_sample(s == 5 ? 2.0 : 2000.0, 1.0);
  hier_->update();
  EXPECT_EQ(selector().select_replica_target(ContentClass::kSemiInteractive,
                                             {}),
            5);
}

TEST_F(HierarchyTest, ServerCountMatchesTopology) {
  EXPECT_EQ(hier_->server_count(), 8u);
}

/// Loads seeded random flows onto a tree, gives every server its own
/// R_other (its CPU and disk rate), and checks the three kept values of
/// every server against the allocator's link rates along the route to the
/// gateway. Two in five flows run between a server and a client; the rest
/// run between two servers and load the ToR and aggregation links without
/// the core, so every level binds somewhere.
void expect_values_equal_path_min(const net::TopologyConfig& cfg) {
  sim::Simulator sim(1);
  net::ThreeTierTree topo(sim, cfg);
  const net::Network& net = topo.net();
  ScdaParams params;
  RateAllocator alloc(topo.net(), params);
  const std::size_t n = topo.servers().size();
  std::vector<BlockServer> servers;
  for (std::size_t s = 0; s < n; ++s)
    servers.emplace_back(s, topo.servers()[s]);
  Hierarchy hier(topo, alloc, servers);
  sim::Rng rng(7);

  const auto last_server = static_cast<std::int64_t>(n) - 1;
  const auto last_client =
      static_cast<std::int64_t>(topo.clients().size()) - 1;
  const auto server = [&] {
    return topo.servers()[static_cast<std::size_t>(
        rng.uniform_int(0, last_server))];
  };
  for (net::FlowId f{1}; f <= net::FlowId{static_cast<std::int64_t>(2 * n)};
       ++f) {
    const net::NodeId s = server();
    const net::NodeId peer =
        rng.bernoulli(0.4) ? topo.clients()[static_cast<std::size_t>(
                                  rng.uniform_int(0, last_client))]
                            : server();
    if (peer == s) continue;
    if (rng.bernoulli(0.5)) {
      alloc.register_flow(f, s, peer);
    } else {
      alloc.register_flow(f, peer, s);
    }
  }
  for (int i = 0; i < 20; ++i) alloc.tick();

  const auto path_min = [&](net::NodeId src, net::NodeId dst,
                            sim::BitRate init) {
    for (const net::LinkId l : net.path(src, dst))
      init = sim::min(init, alloc.link_rate(l));
    return init;
  };
  // R_other spreads around each server's link-only uplink min, so it caps
  // some servers and leaves the rest to their links.
  std::vector<sim::BitRate> other(n);
  for (std::size_t s = 0; s < n; ++s) {
    const sim::BitRate links = path_min(
        topo.servers()[s], topo.gateway(),
        sim::BitRate{std::numeric_limits<double>::infinity()});
    other[s] = links * rng.uniform(0.5, 1.5);
    servers[s].resources() = ServerResources(other[s], other[s]);
  }
  hier.update();

  std::size_t other_binds = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const net::NodeId node = topo.servers()[s];
    if (hier.server_value_up(s).bps() == other[s].bps()) ++other_binds;
    EXPECT_EQ(hier.rm_rhat_up(s).bps(),
              sim::min(other[s], alloc.link_rate(topo.server_uplink(s))).bps())
        << "server " << s;
    EXPECT_EQ(hier.server_value_up(s).bps(),
              path_min(node, topo.gateway(), other[s]).bps())
        << "server " << s;
    EXPECT_EQ(hier.server_value_down(s).bps(),
              path_min(topo.gateway(), node, other[s]).bps())
        << "server " << s;
  }
  // Both kinds of minimum occur: R_other caps some servers, links the rest.
  EXPECT_GT(other_binds, 0u);
  EXPECT_LT(other_binds, n);
}

TEST(HierarchyPathMin, KeptValuesEqualDirectPathMin) {
  net::TopologyConfig small;  // the 2x2x2 test tree
  small.n_agg = 2;
  small.tors_per_agg = 2;
  small.servers_per_tor = 2;
  small.n_clients = 2;
  small.base_bps = sim::BitRate{100e6};
  small.k_factor = 2.0;
  expect_values_equal_path_min(small);

  expect_values_equal_path_min(net::TopologyConfig{});  // the paper's 4x5x8

  net::TopologyConfig fluid_scale;  // perfbench's fluid-scale 8x8x16 tree
  fluid_scale.n_agg = 8;
  fluid_scale.tors_per_agg = 8;
  fluid_scale.servers_per_tor = 16;
  fluid_scale.n_clients = 256;
  fluid_scale.base_bps = sim::BitRate{10e9};
  expect_values_equal_path_min(fluid_scale);
}

}  // namespace
}  // namespace scda::core
