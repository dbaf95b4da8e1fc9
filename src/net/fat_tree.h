// k-ary fat-tree (Al-Fares et al., SIGCOMM'08 — the paper's reference [1];
// PortLand [24] uses the same fabric).
//
//   k pods; each pod has k/2 edge and k/2 aggregation switches;
//   (k/2)^2 core switches; each edge switch hosts k/2 servers.
//   Full bisection bandwidth with equal-capacity links.
//
// Between any two servers in different pods there are (k/2)^2 equal-cost
// paths — the multipath fabric ECMP/VLB randomize over and SCDA's
// widest-path selection routes deliberately (sections IX and XI).
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

  /// Build the network's route tables. Packet-mode traffic needs them.
  /// At k=32 they hold ~337k destination runs (~2.7 MB) and take
  /// 64-80 ms to build, a BFS over the switches from each of the 1,280
  /// switches, against 3-5 ms for the rest of the fabric. Fluid-only
  /// scale runs turn this off and use FatTree::server_path().
  bool build_routes = true;

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

class FatTree {
 public:
  FatTree(sim::Simulator& sim, const FatTreeConfig& cfg);

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
    return server_up_.at(s);
  }
  [[nodiscard]] LinkId server_downlink(std::size_t s) const {
    return server_down_.at(s);
  }

  /// Analytic server-to-server path (ordered link ids), independent of the
  /// network's route tables: the regular fat-tree wiring makes every shortest
  /// path enumerable in O(1) from the stored link arrays. Among the
  /// equal-cost choices the aggregation/core hop is picked by splitmix64 of
  /// the flow id — the same ECMP hash ecmp_path() uses — so paths are
  /// deterministic per flow. src == dst returns an empty path.
  [[nodiscard]] std::vector<LinkId> server_path(std::size_t src,
                                                std::size_t dst,
                                                FlowId flow) const;

 private:
  FatTreeConfig cfg_;
  Network net_;
  NodeId gateway_ = kInvalidNode;
  std::vector<NodeId> cores_, aggs_, edges_, servers_, clients_;
  std::vector<LinkId> server_up_, server_down_;
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
