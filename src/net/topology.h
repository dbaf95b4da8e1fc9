// Datacenter topologies (paper figures 1 and 6).
//
// The evaluation topology is a three-tier tree: block servers under
// top-of-rack switches, ToRs under aggregation switches, aggregation
// switches under one core switch, and a WAN gateway where the user clients
// (UCLs) attach over 50 ms links. Link capacities follow figure 6:
//
//   server <-> ToR      : X
//   ToR    <-> Agg      : X
//   Agg    <-> Core     : K * X        (the "bandwidth factor" K <= 6)
//   Core   <-> Gateway  : 6 * X
//   Client <-> Gateway  : X, 50 ms propagation
//
// Levels for the RM/RA hierarchy (hmax = 3):
//   level 0: server access links (monitored by RMs)
//   level 1: ToR uplinks/downlinks (level-1 RAs)
//   level 2: Agg uplinks/downlinks (level-2 RAs)
//   level 3: Core<->Gateway links (the top RA)
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"

namespace scda::net {

struct TopologyConfig {
  // shape
  std::int32_t n_agg = 4;             ///< aggregation switches
  std::int32_t tors_per_agg = 5;      ///< ToR switches per aggregation
  std::int32_t servers_per_tor = 8;   ///< block servers per ToR
  std::int32_t n_clients = 64;        ///< UCL clients on the WAN side

  // capacities (dimension-checked; k_factor/core_gw_mult are unitless)
  sim::BitRate base_bps{500e6};  ///< X in figure 6
  double k_factor = 3.0;    ///< K, multiplier on Agg<->Core links
  double core_gw_mult = 6.0;

  // propagation delays (seconds)
  double dc_delay_s = 10e-3;   ///< every intra-datacenter hop (figure 6)
  double wan_delay_s = 50e-3;  ///< client <-> gateway

  // drop-tail queue limit per link
  std::int64_t queue_limit_bytes = 256 * 1500;

  [[nodiscard]] std::int32_t n_tors() const noexcept {
    return n_agg * tors_per_agg;
  }
  [[nodiscard]] std::int32_t n_servers() const noexcept {
    return n_tors() * servers_per_tor;
  }
};

/// A built three-tier tree plus the level metadata the SCDA control plane
/// (RM/RA hierarchy) attaches to.
///
/// Node ids are in preorder from the gateway: the core's subtree (each
/// aggregation switch followed by its ToRs, each ToR by its servers), then
/// the clients. Every path in the tree is unique, so the tree answers its
/// network's routes from that shape through a route hook, and builds no
/// route tables.
class ThreeTierTree {
 public:
  /// Throws std::invalid_argument, naming the field, unless n_agg,
  /// tors_per_agg and servers_per_tor are >= 1 and n_clients >= 0.
  ThreeTierTree(sim::Simulator& sim, const TopologyConfig& cfg);

  /// The network's route hook refers to the tree.
  ThreeTierTree(const ThreeTierTree&) = delete;
  ThreeTierTree& operator=(const ThreeTierTree&) = delete;

  [[nodiscard]] Network& net() noexcept { return net_; }
  [[nodiscard]] const Network& net() const noexcept { return net_; }
  [[nodiscard]] const TopologyConfig& config() const noexcept { return cfg_; }

  // node groups
  [[nodiscard]] NodeId gateway() const noexcept { return gateway_; }
  [[nodiscard]] NodeId core() const noexcept { return core_; }
  [[nodiscard]] const std::vector<NodeId>& aggs() const noexcept {
    return aggs_;
  }
  [[nodiscard]] const std::vector<NodeId>& tors() const noexcept {
    return tors_;
  }
  [[nodiscard]] const std::vector<NodeId>& servers() const noexcept {
    return servers_;
  }
  [[nodiscard]] const std::vector<NodeId>& clients() const noexcept {
    return clients_;
  }

  // level-0 links: per server index
  //   uplink   = server -> ToR (data read out of the server)
  //   downlink = ToR -> server (data written into the server)
  [[nodiscard]] LinkId server_uplink(std::size_t s) const {
    return place(servers_.at(s)).up;
  }
  [[nodiscard]] LinkId server_downlink(std::size_t s) const {
    return place(servers_.at(s)).down;
  }

  // level-1 links: per ToR index (up = ToR->Agg, down = Agg->ToR)
  [[nodiscard]] LinkId tor_uplink(std::size_t t) const {
    return place(tors_.at(t)).up;
  }
  [[nodiscard]] LinkId tor_downlink(std::size_t t) const {
    return place(tors_.at(t)).down;
  }

  // level-2 links: per Agg index (up = Agg->Core, down = Core->Agg)
  [[nodiscard]] LinkId agg_uplink(std::size_t a) const {
    return place(aggs_.at(a)).up;
  }
  [[nodiscard]] LinkId agg_downlink(std::size_t a) const {
    return place(aggs_.at(a)).down;
  }

  // level-3 links (up = Core->Gateway, down = Gateway->Core)
  [[nodiscard]] LinkId core_uplink() const noexcept {
    return place(core_).up;
  }
  [[nodiscard]] LinkId core_downlink() const noexcept {
    return place(core_).down;
  }

  // structure
  [[nodiscard]] std::size_t tor_of_server(std::size_t s) const {
    return s / static_cast<std::size_t>(cfg_.servers_per_tor);
  }
  [[nodiscard]] std::size_t agg_of_tor(std::size_t t) const {
    return t / static_cast<std::size_t>(cfg_.tors_per_agg);
  }

 private:
  /// A node's place in the tree: its parent, the end of its subtree (which
  /// is [node, end) in preorder ids) and its links to and from the parent.
  /// The gateway has no parent and no links.
  struct Place {
    NodeId parent = kInvalidNode;
    NodeId end;
    LinkId up = kInvalidLink;
    LinkId down = kInvalidLink;
  };
  [[nodiscard]] const Place& place(NodeId n) const noexcept {
    return places_[n.index()];
  }
  /// The network's route hook: up the tree unless `dst` lies below `at`.
  static LinkId route(const void* tree, NodeId at, NodeId dst);

  TopologyConfig cfg_;
  Network net_;
  NodeId gateway_ = kInvalidNode;
  NodeId core_ = kInvalidNode;
  std::vector<NodeId> aggs_;
  std::vector<NodeId> tors_;
  std::vector<NodeId> servers_;
  std::vector<NodeId> clients_;
  /// places_[n]: node n's place, for every node.
  std::vector<Place> places_;
};

}  // namespace scda::net
