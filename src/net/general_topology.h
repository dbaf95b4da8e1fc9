// General (non-tree) datacenter topologies — paper section IX.
//
// The evaluation topology is a tree (unique paths), but SCDA's allocation
// mechanism extends to arbitrary graphs: RMs/RAs group flows by path and a
// max/min (widest-path) computation picks routes. This builder provides a
// leaf-spine fabric (the "figure 8 of [2]" style folded Clos):
//
//   servers -- leaf switches -- (all) spine switches -- gateway -- clients
//
// Every leaf connects to every spine, so server-to-server and
// client-to-server traffic has one path choice per spine. Combined with
// Network::pin_flow_route and the widest-path selector
// (core/path_selector.h) this exercises SCDA's cross-layer routing. The
// network's default routes come from the fabric's shape through a route
// hook, with no route tables.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"

namespace scda::net {

struct LeafSpineConfig {
  std::int32_t n_spines = 4;
  std::int32_t n_leaves = 8;
  std::int32_t servers_per_leaf = 8;
  std::int32_t n_clients = 32;

  sim::BitRate server_bps{500e6};  ///< server <-> leaf
  sim::BitRate fabric_bps{500e6};  ///< leaf <-> spine
  sim::BitRate gw_bps{1e9};        ///< spine <-> gateway
  sim::BitRate client_bps{500e6};  ///< client <-> gateway

  double dc_delay_s = 10e-3;
  double wan_delay_s = 50e-3;
  std::int64_t queue_limit_bytes = 256 * 1500;

  [[nodiscard]] std::int32_t n_servers() const noexcept {
    return n_leaves * servers_per_leaf;
  }
};

/// A built leaf-spine fabric. Node ids follow the build order: the
/// gateway, the spines, each leaf followed by its servers, then the
/// clients.
class LeafSpine {
 public:
  /// Throws std::invalid_argument unless there is at least one spine and
  /// no count is negative.
  LeafSpine(sim::Simulator& sim, const LeafSpineConfig& cfg);

  /// The network's route hook refers to the fabric.
  LeafSpine(const LeafSpine&) = delete;
  LeafSpine& operator=(const LeafSpine&) = delete;

  [[nodiscard]] Network& net() noexcept { return net_; }
  [[nodiscard]] const LeafSpineConfig& config() const noexcept {
    return cfg_;
  }

  [[nodiscard]] NodeId gateway() const noexcept { return gateway_; }
  [[nodiscard]] const std::vector<NodeId>& spines() const noexcept {
    return spines_;
  }
  [[nodiscard]] const std::vector<NodeId>& leaves() const noexcept {
    return leaves_;
  }
  [[nodiscard]] const std::vector<NodeId>& servers() const noexcept {
    return servers_;
  }
  [[nodiscard]] const std::vector<NodeId>& clients() const noexcept {
    return clients_;
  }

  [[nodiscard]] std::size_t leaf_of_server(std::size_t s) const {
    return s / static_cast<std::size_t>(cfg_.servers_per_leaf);
  }

  // access links per server index
  [[nodiscard]] LinkId server_uplink(std::size_t s) const {
    return place(servers_.at(s)).up;
  }
  [[nodiscard]] LinkId server_downlink(std::size_t s) const {
    return place(servers_.at(s)).down;
  }
  // fabric links: leaf <-> spine
  [[nodiscard]] LinkId leaf_to_spine(std::size_t leaf,
                                     std::size_t spine) const {
    return leaf_up_.at(leaf * static_cast<std::size_t>(cfg_.n_spines) +
                       spine);
  }
  [[nodiscard]] LinkId spine_to_leaf(std::size_t leaf,
                                     std::size_t spine) const {
    return leaf_down_.at(leaf * static_cast<std::size_t>(cfg_.n_spines) +
                         spine);
  }

 private:
  /// A node's place in the fabric: its role; its group (a spine's index, a
  /// leaf's, a server's leaf's); and, for a spine, server or client, its
  /// links to and from the one switch above it.
  struct Place {
    NodeRole role = NodeRole::kGateway;
    std::uint32_t group = 0;
    LinkId up = kInvalidLink;
    LinkId down = kInvalidLink;
  };
  [[nodiscard]] const Place& place(NodeId n) const noexcept {
    return places_[n.index()];
  }
  /// The network's route hook: the lowest-id link among the equal-cost
  /// next hops, from `at`'s role and `dst`'s place.
  static LinkId route(const void* fabric, NodeId at, NodeId dst);

  LeafSpineConfig cfg_;
  Network net_;
  NodeId gateway_ = kInvalidNode;
  std::vector<NodeId> spines_, leaves_, servers_, clients_;
  std::vector<LinkId> leaf_up_, leaf_down_;  // indexed leaf * n_spines + spine
  /// places_[n]: node n's place, for every node.
  std::vector<Place> places_;
};

}  // namespace scda::net
