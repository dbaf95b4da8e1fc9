// Network node: endpoint or switch.
//
// A node forwards packets that are not addressed to it (switch behaviour);
// the Network hands packets addressed to it to its one local-delivery hook
// (the transport's demultiplexer). Forwarding asks the Network for the
// out-link of the shortest path to the destination: the fabric's route
// hook answers it from the fabric's shape, or else, in a hand-built
// network, the BFS next-hop table does.
#pragma once

#include "net/packet.h"

namespace scda::net {

enum class NodeRole : std::uint8_t {
  kClient,      ///< UCL — user client outside the datacenter
  kGateway,     ///< entry point / WAN gateway switch
  kCoreSwitch,  ///< level-3 switch
  kAggSwitch,   ///< level-2 switch
  kTorSwitch,   ///< level-1 top-of-rack switch
  kServer,      ///< BS — block server
  kOther,
};

[[nodiscard]] constexpr const char* to_string(NodeRole r) noexcept {
  switch (r) {
    case NodeRole::kClient: return "client";
    case NodeRole::kGateway: return "gateway";
    case NodeRole::kCoreSwitch: return "core";
    case NodeRole::kAggSwitch: return "agg";
    case NodeRole::kTorSwitch: return "tor";
    case NodeRole::kServer: return "server";
    case NodeRole::kOther: return "other";
  }
  return "?";
}

class Node {
 public:
  Node(NodeId id, NodeRole role) : id_(id), role_(role) {}

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] NodeRole role() const noexcept { return role_; }

 private:
  NodeId id_;
  NodeRole role_;
};

}  // namespace scda::net
