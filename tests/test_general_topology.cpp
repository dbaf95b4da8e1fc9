// Tests for general (non-tree) topology support: the leaf-spine builder,
// per-flow route pinning, and the widest-path (max/min) route selector of
// paper section IX.
#include <gtest/gtest.h>

#include "core/path_selector.h"
#include "core/rate_allocator.h"
#include "net/general_topology.h"
#include "sim/simulator.h"
#include "transport/transport_manager.h"

namespace scda {
namespace {

using core::widest_path;
using core::WidestPathResult;

net::LeafSpineConfig small_cfg() {
  net::LeafSpineConfig cfg;
  cfg.n_spines = 2;
  cfg.n_leaves = 3;
  cfg.servers_per_leaf = 2;
  cfg.n_clients = 2;
  cfg.server_bps = sim::BitRate{100e6};
  cfg.fabric_bps = sim::BitRate{100e6};
  cfg.gw_bps = sim::BitRate{400e6};
  return cfg;
}

TEST(LeafSpine, ShapeCounts) {
  sim::Simulator sim;
  net::LeafSpine ls(sim, small_cfg());
  EXPECT_EQ(ls.spines().size(), 2u);
  EXPECT_EQ(ls.leaves().size(), 3u);
  EXPECT_EQ(ls.servers().size(), 6u);
  EXPECT_EQ(ls.clients().size(), 2u);
  // nodes: gw + 2 spines + 3 leaves + 6 servers + 2 clients = 14
  EXPECT_EQ(ls.net().node_count(), 14u);
  // duplex links: 2 (spine-gw) + 6 (leaf-spine) + 6 (server) + 2 (client)
  EXPECT_EQ(ls.net().link_count(), 32u);
}

TEST(LeafSpine, EveryLeafReachesEverySpine) {
  sim::Simulator sim;
  net::LeafSpine ls(sim, small_cfg());
  for (std::size_t l = 0; l < 3; ++l) {
    for (std::size_t s = 0; s < 2; ++s) {
      const net::LinkId up = ls.leaf_to_spine(l, s);
      EXPECT_EQ(ls.net().link(up).from(), ls.leaves()[l]);
      EXPECT_EQ(ls.net().link(up).to(), ls.spines()[s]);
      const net::LinkId down = ls.spine_to_leaf(l, s);
      EXPECT_EQ(ls.net().link(down).from(), ls.spines()[s]);
      EXPECT_EQ(ls.net().link(down).to(), ls.leaves()[l]);
    }
  }
}

TEST(LeafSpine, CrossLeafPathsExist) {
  sim::Simulator sim;
  net::LeafSpine ls(sim, small_cfg());
  // server 0 (leaf 0) to server 5 (leaf 2): srv->leaf->spine->leaf->srv
  const auto path = ls.net().path(ls.servers()[0], ls.servers()[5]);
  EXPECT_EQ(path.size(), 4u);
}

TEST(WidestPath, PicksLessLoadedSpine) {
  sim::Simulator sim;
  net::LeafSpine ls(sim, small_cfg());
  core::ScdaParams params;
  params.alpha = 1.0;
  core::RateAllocator alloc(ls.net(), params);

  // Congest spine 0 on the leaf0->spine0 segment.
  for (net::FlowId f{100}; f < net::FlowId{104}; ++f) {
    alloc.register_flow_on_path(
        f, {ls.leaf_to_spine(0, 0)}, 1.0);
  }
  for (int i = 0; i < 30; ++i) alloc.tick();

  const auto rate = [&](net::LinkId l) { return alloc.link_rate(l); };
  const WidestPathResult r =
      widest_path(ls.net(), ls.servers()[0], ls.servers()[5], rate);
  ASSERT_EQ(r.path.size(), 4u);
  // The second hop must be via spine 1 (spine 0's uplink is congested).
  EXPECT_EQ(ls.net().link(r.path[1]).to(), ls.spines()[1]);
  EXPECT_NEAR(r.bottleneck.bps(), 100e6, 1e6);
}

TEST(WidestPath, SrcEqualsDstIsEmpty) {
  sim::Simulator sim;
  net::LeafSpine ls(sim, small_cfg());
  const auto rate = [](net::LinkId) { return sim::BitRate{1.0}; };
  const auto r = widest_path(ls.net(), ls.servers()[0], ls.servers()[0], rate);
  EXPECT_TRUE(r.path.empty());
}

TEST(WidestPath, UnreachableReturnsEmpty) {
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_node(net::NodeRole::kOther);
  const auto b = net.add_node(net::NodeRole::kOther);
  net.build_routes();
  const auto r = widest_path(net, a, b,
                             [](net::LinkId) { return sim::BitRate{1.0}; });
  EXPECT_TRUE(r.path.empty());
  EXPECT_DOUBLE_EQ(r.bottleneck.bps(), 0.0);
}

TEST(WidestPath, PrefersFewerHopsOnTies) {
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_node(net::NodeRole::kOther);
  const auto m = net.add_node(net::NodeRole::kOther);
  const auto b = net.add_node(net::NodeRole::kOther);
  net.add_duplex(a, b, sim::BitRate{100e6}, 0.001, 1 << 20);   // direct
  net.add_duplex(a, m, sim::BitRate{100e6}, 0.001, 1 << 20);   // detour, same width
  net.add_duplex(m, b, sim::BitRate{100e6}, 0.001, 1 << 20);
  net.build_routes();
  const auto r = widest_path(net, a, b,
                             [](net::LinkId) { return sim::BitRate{50e6}; });
  EXPECT_EQ(r.path.size(), 1u);
}

TEST(RoutePinning, PinnedDataFollowsExplicitPath) {
  sim::Simulator sim(1);
  net::LeafSpine ls(sim, small_cfg());
  // Default BFS route for server0->server5 uses spine 0 (lowest ids).
  // Pin the flow through spine 1 and verify traffic on its links.
  std::vector<net::LinkId> via_spine1 = {
      ls.server_uplink(0), ls.leaf_to_spine(0, 1), ls.spine_to_leaf(2, 1),
      ls.server_downlink(5)};
  transport::TransportManager tm(ls.net());
  int done = 0;
  tm.set_completion_callback([&](const transport::FlowRecord&) { ++done; });
  const net::FlowId id = tm.next_flow_id();
  ls.net().pin_flow_route(id, via_spine1);
  tm.start_scda_flow(ls.servers()[0], ls.servers()[5], 500'000, sim::BitRate{50e6},
                    sim::BitRate{50e6});
  sim.run_until(scda::sim::secs(30.0));
  EXPECT_EQ(done, 1);
  EXPECT_GT(ls.net().link(ls.leaf_to_spine(0, 1)).stats().tx_bytes, 400'000u);
  EXPECT_EQ(ls.net().link(ls.leaf_to_spine(0, 0)).stats().tx_packets, 0u);
}

TEST(RoutePinning, BadPathsRejected) {
  sim::Simulator sim;
  net::LeafSpine ls(sim, small_cfg());
  EXPECT_THROW(ls.net().pin_flow_route(scda::net::FlowId{1}, {}),
               std::invalid_argument);
  // Non-contiguous: server uplink then an unrelated spine-gw link.
  EXPECT_THROW(
      ls.net().pin_flow_route(scda::net::FlowId{1},
                              {ls.server_uplink(0), ls.server_uplink(3)}),
      std::invalid_argument);
}

TEST(RoutePinning, UnpinRestoresDefaultRouting) {
  sim::Simulator sim(1);
  net::LeafSpine ls(sim, small_cfg());
  std::vector<net::LinkId> via_spine1 = {
      ls.server_uplink(0), ls.leaf_to_spine(0, 1), ls.spine_to_leaf(2, 1),
      ls.server_downlink(5)};
  ls.net().pin_flow_route(scda::net::FlowId{7}, via_spine1);
  EXPECT_TRUE(ls.net().has_pinned_route(scda::net::FlowId{7}));
  ls.net().unpin_flow_route(scda::net::FlowId{7});
  EXPECT_FALSE(ls.net().has_pinned_route(scda::net::FlowId{7}));
}

TEST(GeneralTopologyAllocation, FairSharesOnLeafSpine) {
  // The allocator is topology-agnostic: two pinned flows sharing one
  // fabric link converge to half its capacity each.
  sim::Simulator sim;
  net::LeafSpine ls(sim, small_cfg());
  core::ScdaParams params;
  params.alpha = 1.0;
  core::RateAllocator alloc(ls.net(), params);
  std::vector<net::LinkId> shared = {ls.server_uplink(0),
                                     ls.leaf_to_spine(0, 0)};
  alloc.register_flow_on_path(scda::net::FlowId{1}, shared);
  alloc.register_flow_on_path(scda::net::FlowId{2}, {ls.server_uplink(1),
                                  ls.leaf_to_spine(0, 0)});
  for (int i = 0; i < 50; ++i) alloc.tick();
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{1}).bps(), 50e6, 1e5);
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{2}).bps(), 50e6, 1e5);
}

}  // namespace
}  // namespace scda
