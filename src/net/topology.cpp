#include "net/topology.h"

#include <stdexcept>

namespace scda::net {

ThreeTierTree::ThreeTierTree(sim::Simulator& sim, const TopologyConfig& cfg)
    : cfg_(cfg), net_(sim) {
  // Every level needs a node for the one below to hang from; a tree
  // without clients still has server-to-server paths.
  if (cfg.n_agg < 1)
    throw std::invalid_argument("ThreeTierTree: n_agg must be >= 1");
  if (cfg.tors_per_agg < 1)
    throw std::invalid_argument("ThreeTierTree: tors_per_agg must be >= 1");
  if (cfg.servers_per_tor < 1)
    throw std::invalid_argument(
        "ThreeTierTree: servers_per_tor must be >= 1");
  if (cfg.n_clients < 0)
    throw std::invalid_argument("ThreeTierTree: n_clients must be >= 0");
  const auto n_agg = static_cast<std::size_t>(cfg.n_agg);
  const auto n_tors = static_cast<std::size_t>(cfg.n_tors());
  const auto n_servers = static_cast<std::size_t>(cfg.n_servers());
  const auto n_clients = static_cast<std::size_t>(cfg.n_clients);
  // Every node but the gateway has one duplex link up the tree.
  const std::size_t nodes = 2 + n_agg + n_tors + n_servers + n_clients;
  net_.reserve(nodes, 2 * (nodes - 1));
  places_.reserve(nodes);
  aggs_.reserve(n_agg);
  tors_.reserve(n_tors);
  servers_.reserve(n_servers);
  clients_.reserve(n_clients);

  const auto q = cfg.queue_limit_bytes;
  const sim::BitRate x = cfg.base_bps;

  gateway_ = net_.add_node(NodeRole::kGateway);
  places_.push_back({kInvalidNode, NodeId{1}});
  // A node under `parent` and its duplex link to it. Its subtree ends
  // after it until close_subtree() extends it over the nodes added below
  // it.
  const auto attach = [&](NodeRole role, NodeId parent, sim::BitRate capacity,
                          double prop_delay_s) {
    const NodeId n = net_.add_node(role);
    const auto [up, down] = net_.add_duplex(n, parent, capacity,
                                            prop_delay_s, q);
    places_.push_back({parent, NodeId::from_index(n.index() + 1), up, down});
    return n;
  };
  const auto close_subtree = [&](NodeId n) {
    places_[n.index()].end = NodeId::from_index(places_.size());
  };

  // Core <-> Gateway at 6X (level 3).
  core_ = attach(NodeRole::kCoreSwitch, gateway_, cfg.core_gw_mult * x,
                 cfg.dc_delay_s);
  for (std::int32_t a = 0; a < cfg.n_agg; ++a) {
    const NodeId agg =
        attach(NodeRole::kAggSwitch, core_, cfg.k_factor * x, cfg.dc_delay_s);
    aggs_.push_back(agg);
    for (std::int32_t t = 0; t < cfg.tors_per_agg; ++t) {
      const NodeId tor = attach(NodeRole::kTorSwitch, agg, x, cfg.dc_delay_s);
      tors_.push_back(tor);
      for (std::int32_t s = 0; s < cfg.servers_per_tor; ++s)
        servers_.push_back(
            attach(NodeRole::kServer, tor, x, cfg.dc_delay_s));
      close_subtree(tor);
    }
    close_subtree(agg);
  }
  close_subtree(core_);
  for (std::int32_t c = 0; c < cfg.n_clients; ++c)
    clients_.push_back(attach(NodeRole::kClient, gateway_, x, cfg.wan_delay_s));
  close_subtree(gateway_);

  net_.finalize();
  net_.set_route_hook(&ThreeTierTree::route, this);
}

LinkId ThreeTierTree::route(const void* tree, NodeId at, NodeId dst) {
  const auto& places = static_cast<const ThreeTierTree*>(tree)->places_;
  const std::size_t a = at.index();
  const Place& here = places[a];
  // dst lies below `at` when it is in (at, end). Unsigned arithmetic wraps
  // dst <= at past the subtree, so one compare decides, and for a leaf
  // (end == at + 1) it always goes up.
  if (dst.index() - a - 1 >= here.end.index() - a - 1) return here.up;
  // Down through the child whose subtree holds dst: the tree is four
  // levels deep, so at most three parent steps from dst reach it.
  NodeId child = dst;
  while (places[child.index()].parent != at)
    child = places[child.index()].parent;
  return places[child.index()].down;
}

}  // namespace scda::net
