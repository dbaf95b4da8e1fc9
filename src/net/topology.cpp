#include "net/topology.h"

namespace scda::net {

ThreeTierTree::ThreeTierTree(sim::Simulator& sim, const TopologyConfig& cfg)
    : cfg_(cfg), net_(sim) {
  const auto n_agg = static_cast<std::size_t>(cfg.n_agg);
  const auto n_tors = static_cast<std::size_t>(cfg.n_tors());
  const auto n_servers = static_cast<std::size_t>(cfg.n_servers());
  const auto n_clients = static_cast<std::size_t>(cfg.n_clients);
  // Every node but the gateway has one duplex link up the tree.
  const std::size_t nodes = 2 + n_agg + n_tors + n_servers + n_clients;
  net_.reserve(nodes, 2 * (nodes - 1));
  aggs_.reserve(n_agg);
  agg_up_.reserve(n_agg);
  agg_down_.reserve(n_agg);
  tors_.reserve(n_tors);
  tor_up_.reserve(n_tors);
  tor_down_.reserve(n_tors);
  servers_.reserve(n_servers);
  server_up_.reserve(n_servers);
  server_down_.reserve(n_servers);
  clients_.reserve(n_clients);

  gateway_ = net_.add_node(NodeRole::kGateway);
  core_ = net_.add_node(NodeRole::kCoreSwitch);

  const auto q = cfg.queue_limit_bytes;
  const sim::BitRate x = cfg.base_bps;

  // Core <-> Gateway at 6X (level 3).
  {
    auto [up, down] = net_.add_duplex(core_, gateway_, cfg.core_gw_mult * x,
                                      cfg.dc_delay_s, q);
    core_up_ = up;
    core_down_ = down;
  }

  for (std::int32_t a = 0; a < cfg.n_agg; ++a) {
    const NodeId agg = net_.add_node(NodeRole::kAggSwitch);
    aggs_.push_back(agg);
    auto [up, down] =
        net_.add_duplex(agg, core_, cfg.k_factor * x, cfg.dc_delay_s, q);
    agg_up_.push_back(up);
    agg_down_.push_back(down);

    for (std::int32_t t = 0; t < cfg.tors_per_agg; ++t) {
      const NodeId tor = net_.add_node(NodeRole::kTorSwitch);
      tors_.push_back(tor);
      auto [tup, tdown] = net_.add_duplex(tor, agg, x, cfg.dc_delay_s, q);
      tor_up_.push_back(tup);
      tor_down_.push_back(tdown);

      for (std::int32_t s = 0; s < cfg.servers_per_tor; ++s) {
        const NodeId srv = net_.add_node(NodeRole::kServer);
        servers_.push_back(srv);
        auto [sup, sdown] = net_.add_duplex(srv, tor, x, cfg.dc_delay_s, q);
        server_up_.push_back(sup);
        server_down_.push_back(sdown);
      }
    }
  }

  for (std::int32_t c = 0; c < cfg.n_clients; ++c) {
    const NodeId cl = net_.add_node(NodeRole::kClient);
    clients_.push_back(cl);
    net_.add_duplex(cl, gateway_, x, cfg.wan_delay_s, q);
  }

  net_.build_routes();
}

}  // namespace scda::net
