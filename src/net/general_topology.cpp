#include "net/general_topology.h"

namespace scda::net {

LeafSpine::LeafSpine(sim::Simulator& sim, const LeafSpineConfig& cfg)
    : cfg_(cfg), net_(sim) {
  const auto n_spines = static_cast<std::size_t>(cfg.n_spines);
  const auto n_leaves = static_cast<std::size_t>(cfg.n_leaves);
  const auto n_servers = static_cast<std::size_t>(cfg.n_servers());
  const auto n_clients = static_cast<std::size_t>(cfg.n_clients);
  // Nodes: gateway, spines, leaves, servers, clients. Duplex links:
  // spine-gateway, leaf-spine, server, client.
  net_.reserve(1 + n_spines + n_leaves + n_servers + n_clients,
               2 * (n_spines + n_leaves * n_spines + n_servers + n_clients));

  gateway_ = net_.add_node(NodeRole::kGateway);

  for (std::int32_t s = 0; s < cfg.n_spines; ++s) {
    const NodeId spine = net_.add_node(NodeRole::kCoreSwitch);
    spines_.push_back(spine);
    net_.add_duplex(spine, gateway_, cfg.gw_bps, cfg.dc_delay_s,
                    cfg.queue_limit_bytes);
  }

  for (std::int32_t l = 0; l < cfg.n_leaves; ++l) {
    const NodeId leaf = net_.add_node(NodeRole::kTorSwitch);
    leaves_.push_back(leaf);
    for (std::int32_t s = 0; s < cfg.n_spines; ++s) {
      auto [up, down] = net_.add_duplex(
          leaf, spines_[static_cast<std::size_t>(s)], cfg.fabric_bps,
          cfg.dc_delay_s, cfg.queue_limit_bytes);
      leaf_up_.push_back(up);
      leaf_down_.push_back(down);
    }
    for (std::int32_t s = 0; s < cfg.servers_per_leaf; ++s) {
      const NodeId srv = net_.add_node(NodeRole::kServer);
      servers_.push_back(srv);
      auto [up, down] = net_.add_duplex(srv, leaf, cfg.server_bps,
                                        cfg.dc_delay_s,
                                        cfg.queue_limit_bytes);
      server_up_.push_back(up);
      server_down_.push_back(down);
    }
  }

  for (std::int32_t c = 0; c < cfg.n_clients; ++c) {
    const NodeId cl = net_.add_node(NodeRole::kClient);
    clients_.push_back(cl);
    net_.add_duplex(cl, gateway_, cfg.client_bps, cfg.wan_delay_s,
                    cfg.queue_limit_bytes);
  }

  net_.build_routes();
}

}  // namespace scda::net
