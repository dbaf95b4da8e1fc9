#include "core/hierarchy.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "net/topology.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace scda::core {
namespace {

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
    hier_ = std::make_unique<Hierarchy>(*topo_, *alloc_);
  }

  sim::Simulator sim_;
  net::TopologyConfig cfg_;
  ScdaParams params_;
  std::unique_ptr<net::ThreeTierTree> topo_;
  std::unique_ptr<RateAllocator> alloc_;
  std::unique_ptr<Hierarchy> hier_;
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
  hier_->set_r_other_provider([](std::size_t s) {
    // server 2 disk-limited to 30M
    return sim::BitRate{s == 2 ? 30e6 : 1e9};
  });
  hier_->update();
  EXPECT_DOUBLE_EQ(hier_->rm_rhat_up(2).bps(), 30e6);
  EXPECT_DOUBLE_EQ(hier_->server_value_up(2).bps(), 30e6);
  EXPECT_DOUBLE_EQ(hier_->server_value_down(2).bps(), 30e6);
  EXPECT_DOUBLE_EQ(hier_->rm_rhat_up(3).bps(), 100e6);
}

TEST_F(HierarchyTest, BestServerPrefersUnloaded) {
  // Load server 0's uplink with flows so its rate drops; the best-uplink
  // server must be someone else.
  for (net::FlowId f{1}; f <= net::FlowId{4}; ++f)
    alloc_->register_flow(f, topo_->servers()[0], topo_->clients()[0]);
  for (int i = 0; i < 50; ++i) alloc_->tick();
  hier_->update();
  const BestServer b = hier_->best_server(SelectionMetric::kUp);
  EXPECT_NE(b.server, 0);
  EXPECT_GT(b.value.bps(), hier_->server_value_up(0).bps());
}

TEST_F(HierarchyTest, BestServerMinUpDownUsesWorseDirection) {
  hier_->set_r_other_provider(
      [](std::size_t) { return sim::BitRate{1e9}; });
  // Load server 1's downlink only.
  for (net::FlowId f{1}; f <= net::FlowId{4}; ++f)
    alloc_->register_flow(f, topo_->clients()[0], topo_->servers()[1]);
  for (int i = 0; i < 50; ++i) alloc_->tick();
  hier_->update();
  const double min_v = std::min(hier_->server_value_up(1).bps(),
                                hier_->server_value_down(1).bps());
  EXPECT_LT(min_v, 100e6);
  const BestServer b = hier_->best_server(SelectionMetric::kMinUpDown);
  EXPECT_NE(b.server, 1);
}

TEST_F(HierarchyTest, FilteredSelectionHonoursPredicate) {
  hier_->update();
  const BestServer b = hier_->best_server(
      SelectionMetric::kUp, [](std::size_t s) { return s >= 6; });
  EXPECT_GE(b.server, 6);
}

TEST_F(HierarchyTest, FilteredSelectionAllRejectedGivesInvalid) {
  hier_->update();
  const BestServer b = hier_->best_server(
      SelectionMetric::kUp, [](std::size_t) { return false; });
  EXPECT_EQ(b.server, -1);
}

TEST_F(HierarchyTest, ReweightChangesWinner) {
  hier_->update();
  // Heavily penalize every server except 5.
  const BestServer b = hier_->best_server(
      SelectionMetric::kUp, nullptr,
      [](std::size_t s, sim::BitRate v) {
        return s == 5 ? v : v / 1000.0;
      });
  EXPECT_EQ(b.server, 5);
}

TEST_F(HierarchyTest, ServerCountMatchesTopology) {
  EXPECT_EQ(hier_->server_count(), 8u);
}

/// Loads seeded random flows onto a tree, gives every server its own
/// R_other, and checks the three kept values of every server against the
/// allocator's link rates along the route to the gateway. Two in five flows
/// run between a server and a client; the rest run between two servers and
/// load the ToR and aggregation links without the core, so every level
/// binds somewhere.
void expect_values_equal_path_min(const net::TopologyConfig& cfg) {
  sim::Simulator sim(1);
  net::ThreeTierTree topo(sim, cfg);
  const net::Network& net = topo.net();
  ScdaParams params;
  RateAllocator alloc(topo.net(), params);
  Hierarchy hier(topo, alloc);
  const std::size_t n = topo.servers().size();
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
  }
  hier.set_r_other_provider([&other](std::size_t s) { return other[s]; });
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
