// Network node: endpoint or switch.
//
// A node forwards packets that are not addressed to it (switch behaviour)
// and hands packets addressed to it to the attached sink (transport demux).
// Forwarding asks the Network for the out-link of the shortest path to
// the destination: the fabric's route hook answers it from the fabric's
// shape, or else, in a hand-built network, the BFS next-hop table does.
#pragma once

#include <functional>
#include <utility>

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
  using Sink = std::function<void(Packet&&)>;

  Node(NodeId id, NodeRole role) : id_(id), role_(role) {}

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] NodeRole role() const noexcept { return role_; }

  /// Attach the local packet sink (transport demux). A node without a sink
  /// silently discards packets addressed to it.
  void set_sink(Sink s) { sink_ = std::move(s); }
  [[nodiscard]] bool has_sink() const noexcept {
    return static_cast<bool>(sink_);
  }

  void deliver_local(Packet&& p) {
    if (sink_) sink_(std::move(p));
  }

 private:
  NodeId id_;
  NodeRole role_;
  Sink sink_;
};

}  // namespace scda::net
