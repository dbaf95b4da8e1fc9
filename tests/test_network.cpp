#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "net/fat_tree.h"
#include "net/general_topology.h"
#include "net/topology.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "util/log.h"

namespace scda::net {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(sim_) {}

  /// Line topology: n0 - n1 - n2 - n3.
  void build_line() {
    for (int i = 0; i < 4; ++i)
      ids_.push_back(net_.add_node(NodeRole::kOther,
                                   std::string("n") + std::to_string(i)));
    for (int i = 0; i < 3; ++i)
      net_.add_duplex(ids_[i], ids_[i + 1], sim::BitRate{1e6}, 0.001, 1 << 20);
    net_.build_routes();
  }

  sim::Simulator sim_;
  Network net_;
  std::vector<NodeId> ids_;
};

TEST_F(NetworkTest, AddNodeAssignsSequentialIds) {
  EXPECT_EQ(net_.add_node(NodeRole::kClient, "a"), NodeId{0});
  EXPECT_EQ(net_.add_node(NodeRole::kServer, "b"), NodeId{1});
  EXPECT_EQ(net_.node_count(), 2u);
  EXPECT_EQ(net_.node(NodeId{0}).role(), NodeRole::kClient);
  EXPECT_EQ(net_.node(NodeId{1}).name(), "b");
}

TEST_F(NetworkTest, SelfLoopRejected) {
  const auto a = net_.add_node(NodeRole::kOther, "a");
  EXPECT_THROW(net_.add_link(a, a, sim::BitRate{1e6}, 0.001, 1000),
               std::invalid_argument);
}

TEST_F(NetworkTest, BadCapacityRejected) {
  const auto a = net_.add_node(NodeRole::kOther, "a");
  const auto b = net_.add_node(NodeRole::kOther, "b");
  EXPECT_THROW(net_.add_link(a, b, sim::BitRate{0.0}, 0.001, 1000),
               std::invalid_argument);
}

TEST_F(NetworkTest, DuplexCreatesBothDirections) {
  const auto a = net_.add_node(NodeRole::kOther, "a");
  const auto b = net_.add_node(NodeRole::kOther, "b");
  auto [ab, ba] = net_.add_duplex(a, b, sim::BitRate{1e6}, 0.001, 1000);
  EXPECT_EQ(net_.link(ab).from(), a);
  EXPECT_EQ(net_.link(ab).to(), b);
  EXPECT_EQ(net_.link(ba).from(), b);
  EXPECT_EQ(net_.link(ba).to(), a);
}

TEST_F(NetworkTest, NextHopOnLine) {
  build_line();
  EXPECT_EQ(net_.next_hop(ids_[0], ids_[3]), ids_[1]);
  EXPECT_EQ(net_.next_hop(ids_[1], ids_[3]), ids_[2]);
  EXPECT_EQ(net_.next_hop(ids_[3], ids_[0]), ids_[2]);
  EXPECT_EQ(net_.next_hop(ids_[2], ids_[2]), ids_[2]);
}

TEST_F(NetworkTest, PathEnumeratesLinksInOrder) {
  build_line();
  const auto path = net_.path(ids_[0], ids_[3]);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(net_.link(path[0]).from(), ids_[0]);
  EXPECT_EQ(net_.link(path[2]).to(), ids_[3]);
  EXPECT_TRUE(net_.path(ids_[2], ids_[2]).empty());
}

TEST_F(NetworkTest, UnreachableDestinationThrows) {
  const auto a = net_.add_node(NodeRole::kOther, "a");
  const auto b = net_.add_node(NodeRole::kOther, "b");
  const auto c = net_.add_node(NodeRole::kOther, "c");
  net_.add_duplex(a, b, sim::BitRate{1e6}, 0.001, 1000);
  net_.build_routes();
  EXPECT_THROW((void)net_.path(a, c), std::runtime_error);
}

TEST_F(NetworkTest, MutationAfterRoutesBuiltThrows) {
  build_line();
  EXPECT_THROW(net_.add_node(NodeRole::kOther, "x"), std::logic_error);
  EXPECT_THROW(net_.add_link(ids_[0], ids_[2], sim::BitRate{1e6}, 0.001, 1000),
               std::logic_error);
}

TEST_F(NetworkTest, SendDeliversAcrossMultipleHops) {
  build_line();
  Packet got;
  int count = 0;
  net_.node(ids_[3]).set_sink([&](Packet&& p) {
    got = p;
    ++count;
  });
  Packet p = make_data(scda::net::FlowId{5}, ids_[0], ids_[3], 0, 1000,
                       scda::sim::secs(0.0));
  net_.send(std::move(p));
  sim_.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(got.flow, FlowId{5});
  // 3 hops: 3 tx times (1040B @ 1 Mbps = 8.32 ms) + 3 ms propagation
  EXPECT_NEAR(sim_.now().seconds(), 3 * (1040.0 * 8 / 1e6) + 0.003, 1e-9);
}

TEST_F(NetworkTest, PacketToNodeWithoutSinkIsDiscarded) {
  build_line();
  net_.send(make_data(scda::net::FlowId{1}, ids_[0], ids_[2], 0, 100,
                      scda::sim::secs(0.0)));
  EXPECT_NO_THROW(sim_.run());
}

TEST_F(NetworkTest, ShortestPathChosenOverLonger) {
  // Diamond: a-b-d and a-c-d plus direct a-d; direct wins.
  const auto a = net_.add_node(NodeRole::kOther, "a");
  const auto b = net_.add_node(NodeRole::kOther, "b");
  const auto c = net_.add_node(NodeRole::kOther, "c");
  const auto d = net_.add_node(NodeRole::kOther, "d");
  net_.add_duplex(a, b, sim::BitRate{1e6}, 0.001, 1000);
  net_.add_duplex(b, d, sim::BitRate{1e6}, 0.001, 1000);
  net_.add_duplex(a, c, sim::BitRate{1e6}, 0.001, 1000);
  net_.add_duplex(c, d, sim::BitRate{1e6}, 0.001, 1000);
  net_.add_duplex(a, d, sim::BitRate{1e6}, 0.001, 1000);
  net_.build_routes();
  EXPECT_EQ(net_.path(a, d).size(), 1u);
}

TEST_F(NetworkTest, LinkBetweenFindsDirectedLink) {
  build_line();
  const LinkId l = net_.link_between(ids_[0], ids_[1]);
  ASSERT_NE(l, kInvalidLink);
  EXPECT_EQ(net_.link(l).from(), ids_[0]);
  EXPECT_EQ(net_.link_between(ids_[0], ids_[3]), kInvalidLink);
}

TEST_F(NetworkTest, PacketToUnreachableNodeIsDroppedAndRunContinues) {
  // a <-> b, plus a one-way c -> b: nothing reaches c.
  const auto a = net_.add_node(NodeRole::kOther, "a");
  const auto b = net_.add_node(NodeRole::kOther, "b");
  const auto c = net_.add_node(NodeRole::kOther, "c");
  net_.add_duplex(a, b, sim::BitRate{1e6}, 0.001, 1 << 20);
  net_.add_link(c, b, sim::BitRate{1e6}, 0.001, 1 << 20);
  net_.build_routes();
  int at_b = 0;
  int at_c = 0;
  net_.node(b).set_sink([&](Packet&&) { ++at_b; });
  net_.node(c).set_sink([&](Packet&&) { ++at_c; });

  // The "no route" warning is expected; keep it out of the test log.
  util::Log::set_level(util::LogLevel::kError);
  net_.send(make_data(FlowId{1}, a, c, 0, 100, sim::secs(0.0)));
  net_.send(make_data(FlowId{2}, a, b, 0, 100, sim::secs(0.0)));
  EXPECT_NO_THROW(sim_.run());
  util::Log::set_level(util::LogLevel::kWarn);
  EXPECT_EQ(at_c, 0);
  EXPECT_EQ(at_b, 1);
  // c itself still routes out through its one link.
  EXPECT_EQ(net_.next_hop(c, a), b);
  EXPECT_EQ(net_.next_hop(a, c), kInvalidNode);
}

TEST_F(NetworkTest, OutOfRangeNodeIdThrows) {
  build_line();
  const NodeId past_end{4};
  EXPECT_THROW((void)net_.next_hop(past_end, ids_[0]), std::out_of_range);
  EXPECT_THROW((void)net_.next_hop(ids_[0], past_end), std::out_of_range);
  EXPECT_THROW((void)net_.next_hop(kInvalidNode, ids_[0]), std::out_of_range);
  EXPECT_THROW((void)net_.path(ids_[0], past_end), std::out_of_range);
  EXPECT_THROW((void)net_.path(past_end, ids_[0]), std::out_of_range);
  EXPECT_THROW((void)net_.path(kInvalidNode, ids_[3]), std::out_of_range);
}

TEST_F(NetworkTest, LookupBeforeRoutesBuiltThrows) {
  const auto a = net_.add_node(NodeRole::kOther, "a");
  const auto b = net_.add_node(NodeRole::kOther, "b");
  net_.add_duplex(a, b, sim::BitRate{1e6}, 0.001, 1000);
  EXPECT_EQ(net_.route_table_entries(), 0u);
  EXPECT_THROW((void)net_.next_hop(a, b), std::logic_error);
  EXPECT_THROW((void)net_.path(a, b), std::logic_error);
}

// --- shared packet pool ------------------------------------------------------
TEST_F(NetworkTest, PacketSlotsFollowTheNetworkPeakNotTheSumOfLinkPeaks) {
  // A burst of 8 packets crosses a -> b, then, once it has drained, a
  // burst of 12 crosses b -> a. The second link reuses the slots the first
  // one freed, so the pool ends at the larger burst, not at 8 + 12.
  const auto a = net_.add_node(NodeRole::kOther, "a");
  const auto b = net_.add_node(NodeRole::kOther, "b");
  const auto [ab, ba] = net_.add_duplex(a, b, sim::BitRate{1e6}, 0.01, 1 << 20);
  net_.build_routes();
  int delivered = 0;
  net_.node(a).set_sink([&](Packet&&) { ++delivered; });
  net_.node(b).set_sink([&](Packet&&) { ++delivered; });
  EXPECT_EQ(net_.packet_slots(), 0u);

  for (int i = 0; i < 8; ++i)
    net_.send(make_data(FlowId{1}, a, b, i, 1000, sim_.now()));
  sim_.run();
  ASSERT_EQ(delivered, 8);
  EXPECT_EQ(net_.packet_slots(), 8u);
  for (int i = 0; i < 12; ++i)
    net_.send(make_data(FlowId{2}, b, a, i, 1000, sim_.now()));
  sim_.run();
  ASSERT_EQ(delivered, 20);

  const std::uint64_t peak_ab = net_.link(ab).queue_perf().pool_hwm;
  const std::uint64_t peak_ba = net_.link(ba).queue_perf().pool_hwm;
  EXPECT_EQ(peak_ab, 8u);
  EXPECT_EQ(peak_ba, 12u);
  EXPECT_LE(net_.packet_slots(), std::max(peak_ab, peak_ba));
}

TEST(NetworkLifetime, DestroyedWithPacketsQueuedAndPropagating) {
  // The network owns every packet its links hold; destroying it mid-run
  // must release them all (ASan/LSan check this in the sanitizer build).
  // The simulator outlives the network but never runs again.
  sim::Simulator sim;
  {
    Network net(sim);
    const auto a = net.add_node(NodeRole::kOther, "a");
    const auto b = net.add_node(NodeRole::kOther, "b");
    const LinkId ab = net.add_link(a, b, sim::BitRate{1e6}, 0.05, 1 << 20);
    net.build_routes();
    int delivered = 0;
    net.node(b).set_sink([&](Packet&&) { ++delivered; });
    for (int i = 0; i < 10; ++i)
      net.send(make_data(FlowId{1}, a, b, i, 1460, sim::Time{}));
    // 12 ms per packet on the wire, then 50 ms propagation: at 30 ms two
    // packets are propagating and eight are queued.
    sim.run_until(sim::secs(0.030));
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(net.link(ab).stats().tx_packets, 2u);
    EXPECT_EQ(net.link(ab).queue_bytes(), 8 * 1500);
    EXPECT_EQ(net.packet_slots(), 10u);
  }
}

// --- route oracle ------------------------------------------------------------
// The dense routing the run tables replaced: a BFS from every node over the
// out-links in id order, recording the first-hop neighbour, with the hop's
// link chosen by link_between. The run tables must give the same next hop
// and the same first link for every ordered pair. Returns the number of
// unreachable pairs.
std::size_t expect_routes_match_dense_oracle(const Network& net) {
  const std::size_t n = net.node_count();
  std::size_t unreachable = 0;
  std::vector<std::int32_t> dist(n);
  std::vector<NodeId> first_hop(n);
  for (std::size_t s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(first_hop.begin(), first_hop.end(), kInvalidNode);
    const auto src = NodeId::from_index(s);
    std::deque<NodeId> q{src};
    dist[s] = 0;
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      for (const LinkId lid : net.out_links(u)) {
        const NodeId v = net.link(lid).to();
        if (dist[v.index()] != -1) continue;
        dist[v.index()] = dist[u.index()] + 1;
        first_hop[v.index()] = (u == src) ? v : first_hop[u.index()];
        q.push_back(v);
      }
    }
    for (std::size_t d = 0; d < n; ++d) {
      const auto dst = NodeId::from_index(d);
      const NodeId want = (d == s) ? src : first_hop[d];
      if (net.next_hop(src, dst) != want) {
        ADD_FAILURE() << "next_hop(" << s << ", " << d << ") = "
                      << net.next_hop(src, dst).value() << ", oracle "
                      << want.value();
        return unreachable;
      }
      if (d == s) continue;
      if (!want.valid()) {
        ++unreachable;
        EXPECT_THROW((void)net.path(src, dst), std::runtime_error);
        continue;
      }
      const std::vector<LinkId> p = net.path(src, dst);
      const LinkId got = p.empty() ? kInvalidLink : p.front();
      const LinkId expected = net.link_between(src, want);
      if (got != expected || p.size() != static_cast<std::size_t>(dist[d])) {
        ADD_FAILURE() << "path(" << s << ", " << d << ") leaves through "
                      << got.value() << " in " << p.size()
                      << " hops, oracle " << expected.value() << " in "
                      << dist[d];
        return unreachable;
      }
    }
  }
  return unreachable;
}

TEST(RouteOracle, PaperTree) {
  sim::Simulator sim;
  ThreeTierTree t(sim, TopologyConfig{});
  EXPECT_EQ(expect_routes_match_dense_oracle(t.net()), 0u);
}

TopologyConfig tree_1024_servers() {
  TopologyConfig cfg;
  cfg.n_agg = 8;
  cfg.tors_per_agg = 8;
  cfg.servers_per_tor = 16;
  cfg.n_clients = 256;
  return cfg;
}

TEST(RouteOracle, Tree1024Servers) {
  sim::Simulator sim;
  ThreeTierTree t(sim, tree_1024_servers());
  EXPECT_EQ(expect_routes_match_dense_oracle(t.net()), 0u);
}

TEST(RouteOracle, FatTreeK4) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.k = 4;
  FatTree ft(sim, cfg);
  EXPECT_EQ(expect_routes_match_dense_oracle(ft.net()), 0u);
}

TEST(RouteOracle, FatTreeK8) {
  sim::Simulator sim;
  FatTreeConfig cfg;
  cfg.k = 8;
  FatTree ft(sim, cfg);
  EXPECT_EQ(expect_routes_match_dense_oracle(ft.net()), 0u);
}

TEST(RouteOracle, LeafSpine) {
  sim::Simulator sim;
  LeafSpine ls(sim, LeafSpineConfig{});
  EXPECT_EQ(expect_routes_match_dense_oracle(ls.net()), 0u);
}

TEST(RouteOracle, RandomGraphs) {
  // Sparse seeded digraphs mixing one-way, duplex and parallel links, so
  // some nodes have no out-link, some exactly one (leading to a node with
  // several or with one), and some pairs are unreachable.
  int sinks = 0, single = 0, single_to_single = 0, parallel = 0;
  std::size_t unreachable = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Simulator sim;
    Network net(sim);
    sim::Rng rng(seed);
    const auto n = rng.uniform_int(1, 24);
    for (std::int64_t i = 0; i < n; ++i)
      (void)net.add_node(NodeRole::kOther, "n");
    const auto pick = [&] {
      return NodeId{static_cast<std::int32_t>(rng.uniform_int(0, n - 1))};
    };
    for (auto m = rng.uniform_int(0, 2 * n); m > 0 && n > 1; --m) {
      const NodeId a = pick();
      const NodeId b = pick();
      if (a == b) continue;
      const auto kind = rng.uniform_int(0, 2);  // one-way, duplex, parallel
      net.add_link(a, b, sim::BitRate{1e6}, 0.001, 1000);
      if (kind == 1) net.add_link(b, a, sim::BitRate{1e6}, 0.001, 1000);
      if (kind == 2) {
        net.add_link(a, b, sim::BitRate{1e6}, 0.001, 1000);
        ++parallel;
      }
    }
    net.build_routes();
    for (std::size_t i = 0; i < net.node_count(); ++i) {
      const auto& out = net.out_links(NodeId::from_index(i));
      sinks += out.empty();
      if (out.size() != 1) continue;
      ++single;
      single_to_single += net.out_links(net.link(out[0]).to()).size() == 1;
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    unreachable += expect_routes_match_dense_oracle(net);
  }
  EXPECT_GT(unreachable, 0u);
  EXPECT_GT(sinks, 0);
  EXPECT_GT(single, 0);
  EXPECT_GT(single_to_single, 0);
  EXPECT_GT(parallel, 0);
}

TEST(RouteTables, LinearInNodeCountOn1024ServerTree) {
  // The dense matrix this replaced held node_count()^2 = 1.83M entries.
  sim::Simulator sim;
  ThreeTierTree t(sim, tree_1024_servers());
  EXPECT_EQ(t.net().node_count(), 1354u);
  EXPECT_LT(t.net().route_table_entries(), 4 * t.net().node_count());
}

}  // namespace
}  // namespace scda::net
