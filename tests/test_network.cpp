#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "net/fat_tree.h"
#include "net/general_topology.h"
#include "net/slot_index.h"
#include "net/topology.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "util/log.h"

namespace scda::net {
namespace {

/// Counts the packets a network delivers at each node, through its
/// local-delivery hook, and keeps the last one.
struct Deliveries {
  explicit Deliveries(Network& net) : at(net.node_count(), 0) {
    net.set_local_hook(&take, this);
  }
  static void take(void* self, Packet&& p) {
    auto& d = *static_cast<Deliveries*>(self);
    ++d.at[p.dst.index()];
    d.last = p;
  }
  std::vector<int> at;
  Packet last;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(sim_) {}

  /// Line topology: n0 - n1 - n2 - n3.
  void build_line() {
    for (int i = 0; i < 4; ++i)
      ids_.push_back(net_.add_node(NodeRole::kOther));
    for (int i = 0; i < 3; ++i)
      net_.add_duplex(ids_[i], ids_[i + 1], sim::BitRate{1e6}, 0.001, 1 << 20);
    net_.build_routes();
  }

  sim::Simulator sim_;
  Network net_;
  std::vector<NodeId> ids_;
};

TEST_F(NetworkTest, AddNodeAssignsSequentialIds) {
  EXPECT_EQ(net_.add_node(NodeRole::kClient), NodeId{0});
  EXPECT_EQ(net_.add_node(NodeRole::kServer), NodeId{1});
  EXPECT_EQ(net_.node_count(), 2u);
  EXPECT_EQ(net_.node(NodeId{0}).role(), NodeRole::kClient);
}

TEST_F(NetworkTest, SelfLoopRejected) {
  const auto a = net_.add_node(NodeRole::kOther);
  EXPECT_THROW(net_.add_link(a, a, sim::BitRate{1e6}, 0.001, 1000),
               std::invalid_argument);
}

TEST_F(NetworkTest, BadCapacityRejected) {
  const auto a = net_.add_node(NodeRole::kOther);
  const auto b = net_.add_node(NodeRole::kOther);
  EXPECT_THROW(net_.add_link(a, b, sim::BitRate{0.0}, 0.001, 1000),
               std::invalid_argument);
}

// Throws from add_link(a, b) with these parameters; returns the message.
std::string rejected_link(Network& net, NodeId a, NodeId b, double delay_s,
                          std::int64_t queue_limit_bytes) {
  try {
    (void)net.add_link(a, b, sim::BitRate{1e6}, delay_s, queue_limit_bytes);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "accepted delay " << delay_s << " s, queue limit "
                << queue_limit_bytes << " B";
  return "";
}

TEST_F(NetworkTest, BadPropagationDelayRejected) {
  const auto a = net_.add_node(NodeRole::kOther);
  const auto b = net_.add_node(NodeRole::kOther);
  EXPECT_NE(rejected_link(net_, a, b, -0.01, 1000).find("got -0.01"),
            std::string::npos);
  EXPECT_NE(rejected_link(net_, a, b, -1e-12, 1000).find("propagation delay"),
            std::string::npos);
  rejected_link(net_, a, b, std::numeric_limits<double>::infinity(), 1000);
  rejected_link(net_, a, b, std::numeric_limits<double>::quiet_NaN(), 1000);
  EXPECT_EQ(net_.link_count(), 0u);
  EXPECT_NO_THROW(net_.add_link(a, b, sim::BitRate{1e6}, 0.0, 1000));
}

TEST_F(NetworkTest, BadQueueLimitRejected) {
  const auto a = net_.add_node(NodeRole::kOther);
  const auto b = net_.add_node(NodeRole::kOther);
  EXPECT_NE(rejected_link(net_, a, b, 0.001, 0).find("queue limit"),
            std::string::npos);
  EXPECT_NE(rejected_link(net_, a, b, 0.001, -1500).find("got -1500"),
            std::string::npos);
  EXPECT_EQ(net_.link_count(), 0u);
  // Below one MTU stays legal: small packets still fit.
  EXPECT_NO_THROW(net_.add_link(a, b, sim::BitRate{1e6}, 0.001, 100));
}

TEST_F(NetworkTest, DuplexCreatesBothDirections) {
  const auto a = net_.add_node(NodeRole::kOther);
  const auto b = net_.add_node(NodeRole::kOther);
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
  const auto a = net_.add_node(NodeRole::kOther);
  const auto b = net_.add_node(NodeRole::kOther);
  const auto c = net_.add_node(NodeRole::kOther);
  net_.add_duplex(a, b, sim::BitRate{1e6}, 0.001, 1000);
  net_.build_routes();
  EXPECT_THROW((void)net_.path(a, c), std::runtime_error);
}

TEST_F(NetworkTest, MutationAfterRoutesBuiltThrows) {
  build_line();
  EXPECT_THROW(net_.add_node(NodeRole::kOther), std::logic_error);
  EXPECT_THROW(net_.add_link(ids_[0], ids_[2], sim::BitRate{1e6}, 0.001, 1000),
               std::logic_error);
}

TEST_F(NetworkTest, SendDeliversAcrossMultipleHops) {
  build_line();
  Deliveries got(net_);
  Packet p = make_data(scda::net::FlowId{5}, ids_[0], ids_[3], 0, 1000,
                       scda::sim::secs(0.0));
  net_.send(std::move(p));
  sim_.run();
  EXPECT_EQ(got.at, (std::vector<int>{0, 0, 0, 1}));
  EXPECT_EQ(got.last.flow, FlowId{5});
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
  const auto a = net_.add_node(NodeRole::kOther);
  const auto b = net_.add_node(NodeRole::kOther);
  const auto c = net_.add_node(NodeRole::kOther);
  const auto d = net_.add_node(NodeRole::kOther);
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
  const auto a = net_.add_node(NodeRole::kOther);
  const auto b = net_.add_node(NodeRole::kOther);
  const auto c = net_.add_node(NodeRole::kOther);
  net_.add_duplex(a, b, sim::BitRate{1e6}, 0.001, 1 << 20);
  net_.add_link(c, b, sim::BitRate{1e6}, 0.001, 1 << 20);
  net_.build_routes();
  Deliveries got(net_);

  // The "no route" warning is expected; keep it out of the test log.
  util::Log::set_level(util::LogLevel::kError);
  net_.send(make_data(FlowId{1}, a, c, 0, 100, sim::secs(0.0)));
  net_.send(make_data(FlowId{2}, a, b, 0, 100, sim::secs(0.0)));
  EXPECT_NO_THROW(sim_.run());
  util::Log::set_level(util::LogLevel::kWarn);
  EXPECT_EQ(got.at[c.index()], 0);
  EXPECT_EQ(got.at[b.index()], 1);
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
  const auto a = net_.add_node(NodeRole::kOther);
  const auto b = net_.add_node(NodeRole::kOther);
  net_.add_duplex(a, b, sim::BitRate{1e6}, 0.001, 1000);
  EXPECT_EQ(net_.route_table_entries(), 0u);
  EXPECT_THROW((void)net_.next_hop(a, b), std::logic_error);
  EXPECT_THROW((void)net_.path(a, b), std::logic_error);
  // The adjacency exists once the fabric is final, without any routes.
  EXPECT_THROW((void)net_.out_links(a), std::logic_error);
  net_.finalize();
  ASSERT_EQ(net_.out_links(a).size(), 1u);
  EXPECT_EQ(net_.link(net_.out_links(a)[0]).to(), b);
  EXPECT_THROW((void)net_.next_hop(a, b), std::logic_error);
}

// --- shared packet pool ------------------------------------------------------
TEST_F(NetworkTest, PacketSlotsFollowTheNetworkPeakNotTheSumOfLinkPeaks) {
  // A burst of 8 packets crosses a -> b, then, once it has drained, a
  // burst of 12 crosses b -> a. The second link reuses the slots the first
  // one freed, so the pool ends at the larger burst, not at 8 + 12.
  const auto a = net_.add_node(NodeRole::kOther);
  const auto b = net_.add_node(NodeRole::kOther);
  const auto [ab, ba] = net_.add_duplex(a, b, sim::BitRate{1e6}, 0.01, 1 << 20);
  net_.build_routes();
  Deliveries got(net_);
  EXPECT_EQ(net_.packet_slots(), 0u);

  for (int i = 0; i < 8; ++i)
    net_.send(make_data(FlowId{1}, a, b, i, 1000, sim_.now()));
  sim_.run();
  ASSERT_EQ(got.at[b.index()], 8);
  EXPECT_EQ(net_.packet_slots(), 8u);
  for (int i = 0; i < 12; ++i)
    net_.send(make_data(FlowId{2}, b, a, i, 1000, sim_.now()));
  sim_.run();
  ASSERT_EQ(got.at[a.index()], 12);

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
    const auto a = net.add_node(NodeRole::kOther);
    const auto b = net.add_node(NodeRole::kOther);
    const LinkId ab = net.add_link(a, b, sim::BitRate{1e6}, 0.05, 1 << 20);
    net.build_routes();
    Deliveries got(net);
    for (int i = 0; i < 10; ++i)
      net.send(make_data(FlowId{1}, a, b, i, 1460, sim::Time{}));
    // 12 ms per packet on the wire, then 50 ms propagation: at 30 ms two
    // packets are propagating and eight are queued.
    sim.run_until(sim::secs(0.030));
    EXPECT_EQ(got.at[b.index()], 0);
    EXPECT_EQ(net.link(ab).stats().tx_packets, 2u);
    EXPECT_EQ(net.link(ab).queue_bytes(), 8 * 1500);
    EXPECT_EQ(net.packet_slots(), 10u);
  }
}

// --- slot index --------------------------------------------------------------
/// The (id, slot) pairs a walk over the index visits, in order.
using Walk = std::vector<std::pair<std::int64_t, std::uint32_t>>;
Walk walk(const SlotIndex& idx) {
  Walk out;
  for (const SlotIndex::Entry& e : idx) out.emplace_back(e.id.value(), e.slot);
  return out;
}

TEST(SlotIndex, OutOfOrderInsertsWalkInAscendingId) {
  SlotIndex idx;
  EXPECT_EQ(idx.insert(FlowId{7}), 0u);
  EXPECT_EQ(idx.insert(FlowId{3}), 1u);
  EXPECT_EQ(idx.insert(FlowId{5}), 2u);
  EXPECT_EQ(idx.insert(FlowId{1}), 3u);
  EXPECT_EQ(walk(idx), (Walk{{1, 3}, {3, 1}, {5, 2}, {7, 0}}));
  // A duplicate is refused and changes nothing.
  EXPECT_EQ(idx.insert(FlowId{5}), SlotIndex::kNone);
  EXPECT_EQ(walk(idx), (Walk{{1, 3}, {3, 1}, {5, 2}, {7, 0}}));
  EXPECT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx.find(FlowId{5}), 2u);
}

TEST(SlotIndex, FreedSlotsAreReusedLastInFirstOut) {
  SlotIndex idx;
  for (std::int64_t id = 0; id < 4; ++id)
    EXPECT_EQ(idx.insert(FlowId{id}), static_cast<std::uint32_t>(id));
  EXPECT_EQ(idx.erase(FlowId{1}), 1u);
  EXPECT_EQ(idx.erase(FlowId{3}), 3u);
  EXPECT_EQ(idx.erase(FlowId{0}), 0u);
  EXPECT_EQ(idx.insert(FlowId{4}), 0u);
  EXPECT_EQ(idx.insert(FlowId{5}), 3u);
  EXPECT_EQ(idx.insert(FlowId{6}), 1u);
  // None free: a new slot.
  EXPECT_EQ(idx.insert(FlowId{7}), 4u);
  EXPECT_EQ(walk(idx), (Walk{{2, 2}, {4, 0}, {5, 3}, {6, 1}, {7, 4}}));
}

TEST(SlotIndex, FindOrEraseOfAnAbsentIdReportsNone) {
  SlotIndex idx;
  EXPECT_EQ(idx.find(FlowId{0}), SlotIndex::kNone);
  EXPECT_EQ(idx.erase(FlowId{0}), SlotIndex::kNone);
  (void)idx.insert(FlowId{2});
  (void)idx.insert(FlowId{4});
  for (const std::int64_t absent : {1, 3, 5}) {
    EXPECT_EQ(idx.find(FlowId{absent}), SlotIndex::kNone) << absent;
    EXPECT_EQ(idx.erase(FlowId{absent}), SlotIndex::kNone) << absent;
  }
  // Nothing was freed, so the next insert takes a new slot.
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.insert(FlowId{6}), 2u);
  EXPECT_EQ(idx.erase(FlowId{4}), 1u);
  EXPECT_EQ(idx.erase(FlowId{4}), SlotIndex::kNone);
  EXPECT_EQ(idx.find(FlowId{4}), SlotIndex::kNone);
}

// --- route oracle ------------------------------------------------------------
// The reference routing: a BFS from every node over the out-links in id
// order, recording the first-hop neighbour, with the hop's link chosen by
// link_between. A fabric's route hook and the BFS table build_routes()
// fills must give the same next hop and the same first link for every
// ordered pair. Returns the number of unreachable pairs.
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

TopologyConfig tree(std::int32_t aggs, std::int32_t tors,
                    std::int32_t servers, std::int32_t clients) {
  TopologyConfig cfg;
  cfg.n_agg = aggs;
  cfg.tors_per_agg = tors;
  cfg.servers_per_tor = servers;
  cfg.n_clients = clients;
  return cfg;
}

TopologyConfig tree_1024_servers() { return tree(8, 8, 16, 256); }

FatTreeConfig fat_tree(std::int32_t k, std::int32_t clients) {
  FatTreeConfig cfg;
  cfg.k = k;
  cfg.n_clients = clients;
  return cfg;
}

LeafSpineConfig leaf_spine(std::int32_t spines, std::int32_t leaves,
                           std::int32_t servers, std::int32_t clients) {
  LeafSpineConfig cfg;
  cfg.n_spines = spines;
  cfg.n_leaves = leaves;
  cfg.servers_per_leaf = servers;
  cfg.n_clients = clients;
  return cfg;
}

/// A fabric's nodes and links, with the same ids, in a plain Network with
/// the BFS next-hop table: what a hand-built network of this shape holds.
void build_tables_like(const Network& shape, Network& out) {
  out.reserve(shape.node_count(), shape.link_count());
  for (std::size_t i = 0; i < shape.node_count(); ++i)
    (void)out.add_node(shape.node(NodeId::from_index(i)).role());
  for (std::size_t l = 0; l < shape.link_count(); ++l) {
    const Link& link = shape.link(LinkId::from_index(l));
    (void)out.add_link(link.from(), link.to(), link.capacity(),
                       link.prop_delay_s(), link.queue_limit_bytes());
  }
  out.build_routes();
}

/// The fabric answers from its shape and holds no tables.
void expect_hook_matches_dense_oracle(const Network& net) {
  EXPECT_TRUE(net.has_routes());
  EXPECT_EQ(net.route_table_entries(), 0u);
  EXPECT_EQ(expect_routes_match_dense_oracle(net), 0u);
}

/// BFS tables built for the fabric's links must agree with the same
/// oracle; they hold one cell per ordered pair.
void expect_tables_like_match_dense_oracle(const Network& net) {
  sim::Simulator sim;
  Network tables(sim);
  build_tables_like(net, tables);
  EXPECT_EQ(tables.route_table_entries(), net.node_count() * net.node_count());
  EXPECT_EQ(expect_routes_match_dense_oracle(tables), 0u);
}

void expect_tree_routes_match_dense_oracle(const TopologyConfig& cfg) {
  sim::Simulator sim;
  const ThreeTierTree t(sim, cfg);
  expect_hook_matches_dense_oracle(t.net());
  expect_tables_like_match_dense_oracle(t.net());
}

TEST(RouteOracle, PaperTree) {
  expect_tree_routes_match_dense_oracle(TopologyConfig{});
}

TEST(RouteOracle, Tree1024Servers) {
  expect_tree_routes_match_dense_oracle(tree_1024_servers());
}

TEST(RouteOracle, SmallAndDegenerateTrees) {
  const std::pair<const char*, TopologyConfig> shapes[] = {
      {"2x2x2", tree(2, 2, 2, 4)},
      {"1x1x3", tree(1, 1, 3, 2)},
      {"3x1x1, no clients", tree(3, 1, 1, 0)},
      {"1x4x1", tree(1, 4, 1, 1)},
  };
  for (const auto& [name, cfg] : shapes) {
    SCOPED_TRACE(name);
    expect_tree_routes_match_dense_oracle(cfg);
  }
}

/// The fat-tree's hook with `clients` clients and without any.
void expect_fat_tree_routes_match_dense_oracle(std::int32_t k,
                                               std::int32_t clients) {
  for (const std::int32_t c : {clients, 0}) {
    SCOPED_TRACE("k=" + std::to_string(k) + ", " + std::to_string(c) +
                 " clients");
    sim::Simulator sim;
    FatTree ft(sim, fat_tree(k, c));
    expect_hook_matches_dense_oracle(ft.net());
  }
}

TEST(RouteOracle, FatTreeK4) {
  expect_fat_tree_routes_match_dense_oracle(4, 8);
  // And k=2: one core, and one agg, edge switch and server per pod.
  expect_fat_tree_routes_match_dense_oracle(2, 3);
}

TEST(RouteOracle, FatTreeK8) {
  expect_fat_tree_routes_match_dense_oracle(8, 8);
  // Its links also check the BFS tables on a multipath graph.
  sim::Simulator sim;
  FatTree ft(sim, fat_tree(8, 8));
  expect_tables_like_match_dense_oracle(ft.net());
}

TEST(RouteOracle, FatTreeK16) {
  // 1,353 nodes with 8 clients.
  expect_fat_tree_routes_match_dense_oracle(16, 8);
}

TEST(RouteOracle, LeafSpine) {
  {
    sim::Simulator sim;
    LeafSpine ls(sim, LeafSpineConfig{});
    expect_hook_matches_dense_oracle(ls.net());
    expect_tables_like_match_dense_oracle(ls.net());
  }
  const std::pair<const char*, LeafSpineConfig> shapes[] = {
      {"1x1x1, no clients", leaf_spine(1, 1, 1, 0)},
      {"3x5x2, no clients", leaf_spine(3, 5, 2, 0)},
  };
  for (const auto& [name, cfg] : shapes) {
    SCOPED_TRACE(name);
    sim::Simulator sim;
    LeafSpine ls(sim, cfg);
    expect_hook_matches_dense_oracle(ls.net());
  }
}

TEST(RouteOracle, RandomGraphs) {
  // Sparse seeded digraphs mixing one-way, duplex and parallel links, so
  // some nodes have no out-link and some pairs are unreachable.
  int parallel = 0;
  std::size_t unreachable = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Simulator sim;
    Network net(sim);
    sim::Rng rng(seed);
    const auto n = rng.uniform_int(1, 24);
    for (std::int64_t i = 0; i < n; ++i)
      (void)net.add_node(NodeRole::kOther);
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
    SCOPED_TRACE("seed " + std::to_string(seed));
    unreachable += expect_routes_match_dense_oracle(net);
  }
  EXPECT_GT(unreachable, 0u);
  EXPECT_GT(parallel, 0);
}

TEST(RouteTables, NoFabricBuildsTables) {
  // Every fabric builder routes from its shape through its hook: the paper
  // tree, perfbench fluid-scale's 1,024-server tree, fat-trees up to
  // k=32's 9,481 nodes and the default leaf-spine.
  sim::Simulator sim;
  const auto expect_no_tables = [](const Network& net) {
    EXPECT_TRUE(net.has_routes());
    EXPECT_EQ(net.route_table_entries(), 0u);
  };
  expect_no_tables(ThreeTierTree(sim, TopologyConfig{}).net());
  expect_no_tables(ThreeTierTree(sim, tree_1024_servers()).net());
  for (const std::int32_t k : {4, 8, 16, 32}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    expect_no_tables(FatTree(sim, fat_tree(k, 8)).net());
  }
  expect_no_tables(LeafSpine(sim, LeafSpineConfig{}).net());
}

}  // namespace
}  // namespace scda::net
