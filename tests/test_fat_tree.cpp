#include "net/fat_tree.h"

#include <gtest/gtest.h>

#include <set>

#include "sim/simulator.h"
#include "transport/transport_manager.h"

namespace scda::net {
namespace {

class FatTreeTest : public ::testing::Test {
 protected:
  FatTreeTest() {
    cfg_.k = 4;
    cfg_.n_clients = 4;
    ft_ = std::make_unique<FatTree>(sim_, cfg_);
  }

  sim::Simulator sim_;
  FatTreeConfig cfg_;
  std::unique_ptr<FatTree> ft_;
};

TEST_F(FatTreeTest, K4ShapeCounts) {
  EXPECT_EQ(cfg_.n_servers(), 16);
  EXPECT_EQ(cfg_.cores(), 4);
  EXPECT_EQ(ft_->servers().size(), 16u);
  EXPECT_EQ(ft_->cores().size(), 4u);
  // nodes: gw + 4 cores + 8 aggs + 8 edges + 16 servers + 4 clients = 41
  EXPECT_EQ(ft_->net().node_count(), 41u);
  // duplex links: 4 core-gw + 16 agg-core + 16 edge-agg + 16 server +
  // 4 client = 56 -> 112 unidirectional
  EXPECT_EQ(ft_->net().link_count(), 112u);
}

TEST_F(FatTreeTest, OddKRejected) {
  FatTreeConfig bad;
  bad.k = 3;
  EXPECT_THROW(FatTree(sim_, bad), std::invalid_argument);
  // A negative client count would wrap around in the client loop.
  bad.k = 4;
  bad.n_clients = -1;
  EXPECT_THROW(FatTree(sim_, bad), std::invalid_argument);
}

TEST_F(FatTreeTest, PodMapping) {
  EXPECT_EQ(ft_->pod_of_server(0), 0u);
  EXPECT_EQ(ft_->pod_of_server(3), 0u);
  EXPECT_EQ(ft_->pod_of_server(4), 1u);
  EXPECT_EQ(ft_->pod_of_server(15), 3u);
  EXPECT_EQ(ft_->edge_index_of_server(0), 0u);
  EXPECT_EQ(ft_->edge_index_of_server(2), 1u);
}

TEST_F(FatTreeTest, IntraPodPathLength) {
  // Same edge: srv->edge->srv (2). Same pod, different edge:
  // srv->edge->agg->edge->srv (4).
  EXPECT_EQ(ft_->net().path(ft_->servers()[0], ft_->servers()[1]).size(),
            2u);
  EXPECT_EQ(ft_->net().path(ft_->servers()[0], ft_->servers()[2]).size(),
            4u);
}

TEST_F(FatTreeTest, CrossPodHasFourEqualCostPaths) {
  const auto paths = all_shortest_paths(ft_->net(), ft_->servers()[0],
                                        ft_->servers()[15]);
  ASSERT_EQ(paths.size(), 4u);  // (k/2)^2
  std::set<std::vector<LinkId>> unique(paths.begin(), paths.end());
  EXPECT_EQ(unique.size(), 4u);
  for (const auto& p : paths) {
    EXPECT_EQ(p.size(), 6u);  // srv-edge-agg-core-agg-edge-srv
    // Path is contiguous from src to dst.
    EXPECT_EQ(ft_->net().link(p.front()).from(), ft_->servers()[0]);
    EXPECT_EQ(ft_->net().link(p.back()).to(), ft_->servers()[15]);
    for (std::size_t i = 1; i < p.size(); ++i)
      EXPECT_EQ(ft_->net().link(p[i]).from(),
                ft_->net().link(p[i - 1]).to());
  }
}

TEST_F(FatTreeTest, AllShortestPathsTrivialCases) {
  EXPECT_TRUE(all_shortest_paths(ft_->net(), ft_->servers()[0],
                                 ft_->servers()[0])
                  .empty());
  const auto same_edge = all_shortest_paths(ft_->net(), ft_->servers()[0],
                                            ft_->servers()[1]);
  ASSERT_EQ(same_edge.size(), 1u);
  EXPECT_EQ(same_edge[0].size(), 2u);
}

TEST_F(FatTreeTest, EcmpIsDeterministicPerFlowAndSpreads) {
  const NodeId a = ft_->servers()[0];
  const NodeId b = ft_->servers()[15];
  std::set<std::vector<LinkId>> chosen;
  for (FlowId f{0}; f < FlowId{64}; ++f) {
    const auto p1 = ecmp_path(ft_->net(), a, b, f);
    const auto p2 = ecmp_path(ft_->net(), a, b, f);
    EXPECT_EQ(p1, p2);  // same flow -> same path
    chosen.insert(p1);
  }
  EXPECT_EQ(chosen.size(), 4u);  // 64 flows cover all 4 paths
}

TEST_F(FatTreeTest, PinnedEcmpFlowDeliversData) {
  transport::TransportManager tm(ft_->net());
  int done = 0;
  tm.set_completion_callback([&](const transport::FlowRecord&) { ++done; });
  const NodeId a = ft_->servers()[0];
  const NodeId b = ft_->servers()[12];
  const FlowId id = tm.next_flow_id();
  ft_->net().pin_flow_route(id, ecmp_path(ft_->net(), a, b, id));
  tm.start_scda_flow(a, b, 500'000, sim::BitRate{100e6}, sim::BitRate{100e6});
  sim_.run_until(scda::sim::secs(30.0));
  EXPECT_EQ(done, 1);
}

// ------------------------------------------------------ scale guards ----
//
// The fluid scale bench (bench_scale, BENCH_scale.json) builds k=16/k=32
// fabrics and routes each flow over the analytic FatTree::server_path.
// These tests pin the construction counts, prove the fabric routes from its
// shape with no route tables, and validate the analytic paths against the
// BFS-enumerated shortest paths.

TEST(FatTreeScale, K16CountsWithoutRouteTables) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.k = 16;
  cfg.n_clients = 0;
  FatTree ft(sim, cfg);
  EXPECT_EQ(ft.servers().size(), 1024u);  // k^3/4
  EXPECT_EQ(ft.cores().size(), 64u);      // (k/2)^2
  // gw + cores + k*k pod switches + servers
  EXPECT_EQ(ft.net().node_count(), 1u + 64u + 256u + 1024u);
  // duplex: (k/2)^2 core-gw + 3*(k^3/4) fabric/server = 3136 -> x2
  EXPECT_EQ(ft.net().link_count(), 6272u);
  EXPECT_TRUE(ft.net().has_routes());
  EXPECT_EQ(ft.net().route_table_entries(), 0u);
}

TEST(FatTreeScale, K32CountsWithoutRouteTables) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.k = 32;
  cfg.n_clients = 0;
  FatTree ft(sim, cfg);
  EXPECT_EQ(ft.servers().size(), 8192u);   // k^3/4
  EXPECT_EQ(ft.cores().size(), 256u);      // (k/2)^2
  EXPECT_EQ(ft.net().node_count(), 1u + 256u + 1024u + 8192u);
  // duplex: 256 core-gw + 3*8192 = 24832 -> 49664 unidirectional, the
  // committed BENCH_scale.json "links" value.
  EXPECT_EQ(ft.net().link_count(), 49664u);
  // The fabric's route hook answers every route with no table.
  EXPECT_TRUE(ft.net().has_routes());
  EXPECT_EQ(ft.net().route_table_entries(), 0u);
}

TEST(FatTreeScale, ServerPathIsContiguousAndTiered) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.k = 16;
  cfg.n_clients = 0;
  FatTree ft(sim, cfg);
  const std::size_t n = ft.servers().size();

  auto check = [&](std::size_t src, std::size_t dst, std::size_t hops) {
    const auto p = ft.server_path(src, dst, FlowId{1});
    ASSERT_EQ(p.size(), hops) << src << "->" << dst;
    EXPECT_EQ(ft.net().link(p.front()).from(), ft.servers()[src]);
    EXPECT_EQ(ft.net().link(p.back()).to(), ft.servers()[dst]);
    for (std::size_t i = 1; i < p.size(); ++i)
      EXPECT_EQ(ft.net().link(p[i]).from(), ft.net().link(p[i - 1]).to());
  };
  check(0, 1, 2);          // same edge
  check(0, 8, 4);          // same pod, different edge (k/2 per edge)
  check(0, n - 1, 6);      // inter-pod, via core
  check(n - 1, 0, 6);      // and the reverse direction
  EXPECT_TRUE(ft.server_path(3, 3, FlowId{1}).empty());
  EXPECT_THROW((void)ft.server_path(0, n, FlowId{1}), std::out_of_range);
}

TEST(FatTreeScale, ServerPathMatchesBfsShortestPaths) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.k = 8;
  cfg.n_clients = 0;
  FatTree ft(sim, cfg);
  // Every analytic path must be one of the BFS-enumerated equal-cost
  // shortest paths for that pair.
  const std::size_t pairs[][2] = {{0, 1}, {0, 9}, {0, 127}, {63, 64}};
  for (const auto& pr : pairs) {
    const auto all = all_shortest_paths(ft.net(), ft.servers()[pr[0]],
                                        ft.servers()[pr[1]]);
    const std::set<std::vector<LinkId>> legal(all.begin(), all.end());
    for (FlowId f{0}; f < FlowId{16}; ++f) {
      const auto p = ft.server_path(pr[0], pr[1], f);
      EXPECT_EQ(p, ft.server_path(pr[0], pr[1], f));  // deterministic
      EXPECT_TRUE(legal.count(p)) << pr[0] << "->" << pr[1];
    }
  }
}

TEST(FatTreeScale, ServerPathSpreadsAcrossCores) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.k = 16;
  cfg.n_clients = 0;
  FatTree ft(sim, cfg);
  std::set<std::vector<LinkId>> chosen;
  for (FlowId f{0}; f < FlowId{512}; ++f)
    chosen.insert(ft.server_path(0, ft.servers().size() - 1, f));
  // (k/2)^2 = 64 equal-cost inter-pod paths; 512 hashed flows should
  // cover nearly all of them.
  EXPECT_GE(chosen.size(), 48u);
}

TEST_F(FatTreeTest, K6Scales) {
  FatTreeConfig big;
  big.k = 6;
  big.n_clients = 2;
  sim::Simulator sim2;
  FatTree ft(sim2, big);
  EXPECT_EQ(ft.servers().size(), 54u);  // 6 pods * 3 edges * 3 servers
  EXPECT_EQ(ft.cores().size(), 9u);
  const auto paths =
      all_shortest_paths(ft.net(), ft.servers()[0], ft.servers()[53]);
  EXPECT_EQ(paths.size(), 9u);  // (k/2)^2
}

}  // namespace
}  // namespace scda::net
