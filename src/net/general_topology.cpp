#include "net/general_topology.h"

#include <stdexcept>

namespace scda::net {

LeafSpine::LeafSpine(sim::Simulator& sim, const LeafSpineConfig& cfg)
    : cfg_(cfg), net_(sim) {
  // Without a spine a leaf has no way out; a negative count would wrap
  // around in the sizes below.
  if (cfg.n_spines < 1)
    throw std::invalid_argument("LeafSpine: n_spines must be >= 1");
  if (cfg.n_leaves < 0 || cfg.servers_per_leaf < 0 || cfg.n_clients < 0)
    throw std::invalid_argument(
        "LeafSpine: n_leaves, servers_per_leaf and n_clients must be >= 0");
  const auto n_spines = static_cast<std::size_t>(cfg.n_spines);
  const auto n_leaves = static_cast<std::size_t>(cfg.n_leaves);
  const auto per_leaf = static_cast<std::size_t>(cfg.servers_per_leaf);
  const auto n_servers = n_leaves * per_leaf;
  const auto n_clients = static_cast<std::size_t>(cfg.n_clients);
  const auto q = cfg.queue_limit_bytes;
  // Nodes: gateway, spines, leaves, servers, clients. Duplex links:
  // spine-gateway, leaf-spine, server, client.
  const std::size_t nodes = 1 + n_spines + n_leaves + n_servers + n_clients;
  net_.reserve(nodes,
               2 * (n_spines + n_leaves * n_spines + n_servers + n_clients));
  places_.reserve(nodes);

  gateway_ = net_.add_node(NodeRole::kGateway);
  places_.emplace_back();
  // A node and its place (see Place).
  const auto add = [&](NodeRole role, std::size_t group) {
    places_.push_back({role, static_cast<std::uint32_t>(group)});
    return net_.add_node(role);
  };
  // A spine, server or client, and its duplex link to the switch above it.
  const auto attach = [&](NodeRole role, std::size_t group, NodeId above,
                          sim::BitRate capacity, double prop_delay_s) {
    const NodeId n = add(role, group);
    const auto [up, down] =
        net_.add_duplex(n, above, capacity, prop_delay_s, q);
    places_.back().up = up;
    places_.back().down = down;
    return n;
  };

  for (std::size_t s = 0; s < n_spines; ++s)
    spines_.push_back(attach(NodeRole::kCoreSwitch, s, gateway_, cfg.gw_bps,
                             cfg.dc_delay_s));

  for (std::size_t l = 0; l < n_leaves; ++l) {
    const NodeId leaf = add(NodeRole::kTorSwitch, l);
    leaves_.push_back(leaf);
    for (const NodeId spine : spines_) {
      auto [up, down] =
          net_.add_duplex(leaf, spine, cfg.fabric_bps, cfg.dc_delay_s, q);
      leaf_up_.push_back(up);
      leaf_down_.push_back(down);
    }
    for (std::size_t s = 0; s < per_leaf; ++s)
      servers_.push_back(attach(NodeRole::kServer, l, leaf, cfg.server_bps,
                                cfg.dc_delay_s));
  }

  for (std::size_t c = 0; c < n_clients; ++c)
    clients_.push_back(attach(NodeRole::kClient, 0, gateway_, cfg.client_bps,
                              cfg.wan_delay_s));

  net_.finalize();
  net_.set_route_hook(&LeafSpine::route, this);
}

LinkId LeafSpine::route(const void* fabric, NodeId at, NodeId dst) {
  const auto& ls = *static_cast<const LeafSpine*>(fabric);
  const Place& here = ls.place(at);
  const Place& there = ls.place(dst);
  const auto n_spines = static_cast<std::size_t>(ls.cfg_.n_spines);
  switch (here.role) {
    case NodeRole::kServer:
    case NodeRole::kClient:
      return here.up;
    case NodeRole::kTorSwitch: {
      // Down to its own server; up to spine s towards spine s, and to
      // spine 0 for anything else.
      if (there.role == NodeRole::kServer && there.group == here.group)
        return there.down;
      const std::size_t s =
          there.role == NodeRole::kCoreSwitch ? there.group : 0;
      return ls.leaf_up_[here.group * n_spines + s];
    }
    case NodeRole::kCoreSwitch:
      // Down to leaf l towards it or a server under it; up to the gateway
      // for anything else.
      if (there.role == NodeRole::kTorSwitch || there.role == NodeRole::kServer)
        return ls.leaf_down_[there.group * n_spines + here.group];
      return here.up;
    default:
      // The gateway: straight to a spine or client, and through spine 0
      // for anything else.
      if (there.role == NodeRole::kCoreSwitch ||
          there.role == NodeRole::kClient)
        return there.down;
      return ls.place(ls.spines_.front()).down;
  }
}

}  // namespace scda::net
