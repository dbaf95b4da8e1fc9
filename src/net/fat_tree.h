// k-ary fat-tree (Al-Fares et al., SIGCOMM'08 — the paper's reference [1];
// PortLand [24] uses the same fabric).
//
//   k pods; each pod has k/2 edge and k/2 aggregation switches;
//   (k/2)^2 core switches; each edge switch hosts k/2 servers.
//   Full bisection bandwidth with equal-capacity links.
//
// Between any two servers in different pods there are (k/2)^2 equal-cost
// paths — the multipath fabric ECMP/VLB randomize over and SCDA's
// widest-path selection routes deliberately (sections IX and XI). The
// network's default routes come from the fabric's shape through a route
// hook, with no route tables; server_path() and ecmp_path() hash over the
// equal-cost choices per flow.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"

namespace scda::net {

struct FatTreeConfig {
  std::int32_t k = 4;  ///< pod arity (even); 4 -> 16 servers, 20 switches
  std::int32_t n_clients = 8;

  sim::BitRate link_bps{500e6};  ///< uniform capacity (definitionally)
  sim::BitRate gw_bps{2e9};      ///< core <-> gateway
  double dc_delay_s = 10e-3;
  double wan_delay_s = 50e-3;
  std::int64_t queue_limit_bytes = 256 * 1500;

  [[nodiscard]] std::int32_t pods() const noexcept { return k; }
  [[nodiscard]] std::int32_t edge_per_pod() const noexcept { return k / 2; }
  [[nodiscard]] std::int32_t agg_per_pod() const noexcept { return k / 2; }
  [[nodiscard]] std::int32_t cores() const noexcept {
    return (k / 2) * (k / 2);
  }
  [[nodiscard]] std::int32_t servers_per_edge() const noexcept {
    return k / 2;
  }
  [[nodiscard]] std::int32_t n_servers() const noexcept {
    return k * edge_per_pod() * servers_per_edge();
  }
};

/// A built fat-tree. Node ids follow the build order: the gateway, the
/// cores, then pod by pod its aggregation switches and each edge switch
/// followed by its servers, then the clients.
class FatTree {
 public:
  /// Throws std::invalid_argument unless k is even and >= 2 and n_clients
  /// is not negative.
  FatTree(sim::Simulator& sim, const FatTreeConfig& cfg);

  /// The network's route hook refers to the fabric.
  FatTree(const FatTree&) = delete;
  FatTree& operator=(const FatTree&) = delete;

  [[nodiscard]] Network& net() noexcept { return net_; }
  [[nodiscard]] const FatTreeConfig& config() const noexcept { return cfg_; }

  [[nodiscard]] NodeId gateway() const noexcept { return gateway_; }
  [[nodiscard]] const std::vector<NodeId>& cores() const noexcept {
    return cores_;
  }
  /// Aggregation switch `a` (0..k/2-1) of pod `p`.
  [[nodiscard]] NodeId agg(std::size_t p, std::size_t a) const {
    return aggs_.at(p * static_cast<std::size_t>(cfg_.agg_per_pod()) + a);
  }
  /// Edge switch `e` (0..k/2-1) of pod `p`.
  [[nodiscard]] NodeId edge(std::size_t p, std::size_t e) const {
    return edges_.at(p * static_cast<std::size_t>(cfg_.edge_per_pod()) + e);
  }
  [[nodiscard]] const std::vector<NodeId>& servers() const noexcept {
    return servers_;
  }
  [[nodiscard]] const std::vector<NodeId>& clients() const noexcept {
    return clients_;
  }

  [[nodiscard]] std::size_t pod_of_server(std::size_t s) const {
    return s / static_cast<std::size_t>(cfg_.edge_per_pod() *
                                        cfg_.servers_per_edge());
  }
  [[nodiscard]] std::size_t edge_index_of_server(std::size_t s) const {
    return (s / static_cast<std::size_t>(cfg_.servers_per_edge())) %
           static_cast<std::size_t>(cfg_.edge_per_pod());
  }

  [[nodiscard]] LinkId server_uplink(std::size_t s) const {
    return place(servers_.at(s)).up;
  }
  [[nodiscard]] LinkId server_downlink(std::size_t s) const {
    return place(servers_.at(s)).down;
  }

  /// Analytic server-to-server path (ordered link ids), independent of the
  /// network's default routes: the regular fat-tree wiring makes every
  /// shortest path enumerable in O(1) from the stored link arrays. Among the
  /// equal-cost choices the aggregation/core hop is picked by splitmix64 of
  /// the flow id — the same ECMP hash ecmp_path() uses — so paths are
  /// deterministic per flow. src == dst returns an empty path.
  [[nodiscard]] std::vector<LinkId> server_path(std::size_t src,
                                                std::size_t dst,
                                                FlowId flow) const;

 private:
  /// A node's place in the fabric: its role; its pod (aggregation and edge
  /// switches, servers); its index (core c, an aggregation or edge switch's
  /// within its pod, a server's edge switch's); and, for a core, server or
  /// client, its links to and from the one switch above it.
  struct Place {
    NodeRole role = NodeRole::kGateway;
    std::uint32_t pod = 0;
    std::uint32_t index = 0;
    LinkId up = kInvalidLink;
    LinkId down = kInvalidLink;
  };
  [[nodiscard]] const Place& place(NodeId n) const noexcept {
    return places_[n.index()];
  }
  /// The network's route hook: the lowest-id link among the equal-cost
  /// next hops, from `at`'s role and `dst`'s place.
  static LinkId route(const void* fabric, NodeId at, NodeId dst);

  FatTreeConfig cfg_;
  Network net_;
  NodeId gateway_ = kInvalidNode;
  std::vector<NodeId> cores_, aggs_, edges_, servers_, clients_;
  /// places_[n]: node n's place, for every node.
  std::vector<Place> places_;
  /// Fabric links indexed for analytic routing:
  ///   edge_agg_up_[(p*half + e)*half + a]   edge e of pod p -> agg a
  ///   agg_edge_down_[(p*half + e)*half + a] agg a -> edge e of pod p
  ///   agg_core_up_[(p*half + a)*half + i]   agg a of pod p -> core a*half+i
  ///   core_agg_down_[(p*half + a)*half + i] core a*half+i -> agg a of pod p
  std::vector<LinkId> edge_agg_up_, agg_edge_down_;
  std::vector<LinkId> agg_core_up_, core_agg_down_;
};

/// Enumerate every shortest path between two nodes (deterministic order).
/// Feasible for datacenter fabrics where the count is small; used by the
/// ECMP baseline (hash-pick) and exhaustive-search tests.
[[nodiscard]] std::vector<std::vector<LinkId>> all_shortest_paths(
    const Network& net, NodeId src, NodeId dst);

/// ECMP: pick among the equal-cost shortest paths by flow-id hash
/// (VL2 / Hedera's per-flow randomization, paper section XI).
[[nodiscard]] std::vector<LinkId> ecmp_path(const Network& net, NodeId src,
                                            NodeId dst, FlowId flow);

}  // namespace scda::net
