#include "net/fat_tree.h"

#include <deque>
#include <stdexcept>

#include "sim/rng.h"

namespace scda::net {

FatTree::FatTree(sim::Simulator& sim, const FatTreeConfig& cfg)
    : cfg_(cfg), net_(sim) {
  if (cfg.k < 2 || cfg.k % 2 != 0)
    throw std::invalid_argument("FatTree: k must be even and >= 2");
  if (cfg.n_clients < 0)
    throw std::invalid_argument("FatTree: n_clients must be >= 0");
  const auto half = static_cast<std::size_t>(cfg.k / 2);
  const auto q = cfg.queue_limit_bytes;

  const auto n_pods = static_cast<std::size_t>(cfg.pods());
  const auto n_cores = static_cast<std::size_t>(cfg.cores());
  const std::size_t n_switches = n_pods * half;
  const auto n_servers = static_cast<std::size_t>(cfg.n_servers());
  const auto n_clients = static_cast<std::size_t>(cfg.n_clients);
  // Nodes: gateway, cores, aggs and edges, servers, clients. Duplex links:
  // core-gateway, agg-core, edge-agg, server, client.
  const std::size_t nodes =
      1 + n_cores + 2 * n_switches + n_servers + n_clients;
  net_.reserve(nodes,
               2 * (n_cores + 2 * n_switches * half + n_servers + n_clients));
  places_.reserve(nodes);

  gateway_ = net_.add_node(NodeRole::kGateway);
  places_.emplace_back();
  // A node and its place (see Place).
  const auto add = [&](NodeRole role, std::size_t pod, std::size_t index) {
    places_.push_back({role, static_cast<std::uint32_t>(pod),
                       static_cast<std::uint32_t>(index)});
    return net_.add_node(role);
  };
  // A core, server or client, and its duplex link to the switch above it.
  const auto attach = [&](NodeRole role, std::size_t pod, std::size_t index,
                          NodeId above, sim::BitRate capacity,
                          double prop_delay_s) {
    const NodeId n = add(role, pod, index);
    const auto [up, down] =
        net_.add_duplex(n, above, capacity, prop_delay_s, q);
    places_.back().up = up;
    places_.back().down = down;
    return n;
  };

  for (std::size_t c = 0; c < n_cores; ++c)
    cores_.push_back(attach(NodeRole::kCoreSwitch, 0, c, gateway_, cfg.gw_bps,
                            cfg.dc_delay_s));

  for (std::size_t p = 0; p < n_pods; ++p) {
    // Aggregation switches: agg a connects to cores [a*k/2, (a+1)*k/2).
    for (std::size_t a = 0; a < half; ++a) {
      const NodeId agg = add(NodeRole::kAggSwitch, p, a);
      aggs_.push_back(agg);
      for (std::size_t i = 0; i < half; ++i) {
        const NodeId core = cores_[a * half + i];
        auto [up, down] =
            net_.add_duplex(agg, core, cfg.link_bps, cfg.dc_delay_s, q);
        agg_core_up_.push_back(up);
        core_agg_down_.push_back(down);
      }
    }
    // Edge switches: each connects to every agg in the pod.
    for (std::size_t e = 0; e < half; ++e) {
      const NodeId edge = add(NodeRole::kTorSwitch, p, e);
      edges_.push_back(edge);
      for (std::size_t a = 0; a < half; ++a) {
        auto [up, down] = net_.add_duplex(edge, agg(p, a), cfg.link_bps,
                                          cfg.dc_delay_s, q);
        edge_agg_up_.push_back(up);
        agg_edge_down_.push_back(down);
      }
      for (std::size_t s = 0; s < half; ++s)
        servers_.push_back(attach(NodeRole::kServer, p, e, edge, cfg.link_bps,
                                  cfg.dc_delay_s));
    }
  }

  for (std::size_t c = 0; c < n_clients; ++c)
    clients_.push_back(attach(NodeRole::kClient, 0, 0, gateway_, cfg.link_bps,
                              cfg.wan_delay_s));

  net_.finalize();
  net_.set_route_hook(&FatTree::route, this);
}

LinkId FatTree::route(const void* fabric, NodeId at, NodeId dst) {
  const auto& ft = *static_cast<const FatTree*>(fabric);
  const Place& here = ft.place(at);
  const Place& there = ft.place(dst);
  const auto half = static_cast<std::size_t>(ft.cfg_.k / 2);
  const std::size_t p = here.pod;
  switch (here.role) {
    case NodeRole::kServer:
    case NodeRole::kClient:
      return here.up;
    case NodeRole::kTorSwitch: {
      // Down to its own server; up to agg a towards agg a of any pod or a
      // core of group a, and to agg 0 for anything else.
      if (there.role == NodeRole::kServer && there.pod == p &&
          there.index == here.index)
        return there.down;
      std::size_t a = 0;
      if (there.role == NodeRole::kAggSwitch) a = there.index;
      if (there.role == NodeRole::kCoreSwitch) a = there.index / half;
      return ft.edge_agg_up_[(p * half + here.index) * half + a];
    }
    case NodeRole::kAggSwitch: {
      // Down to an edge switch of its pod or the one a server hangs off,
      // and to a sibling agg through edge 0.
      const std::size_t a = here.index;
      if (there.pod == p && (there.role == NodeRole::kTorSwitch ||
                             there.role == NodeRole::kServer ||
                             there.role == NodeRole::kAggSwitch)) {
        const std::size_t e =
            there.role == NodeRole::kAggSwitch ? 0 : there.index;
        return ft.agg_edge_down_[(p * half + e) * half + a];
      }
      // Up to a core of its own group, and to core a*k/2 for anything else.
      const std::size_t i =
          there.role == NodeRole::kCoreSwitch && there.index / half == a
              ? there.index % half
              : 0;
      return ft.agg_core_up_[(p * half + a) * half + i];
    }
    case NodeRole::kCoreSwitch: {
      // Down through pod q's agg of its group towards that agg or an edge
      // switch or server of pod q; up to the gateway for anything else.
      const std::size_t a = here.index / half;
      if (there.role == NodeRole::kTorSwitch ||
          there.role == NodeRole::kServer ||
          (there.role == NodeRole::kAggSwitch && there.index == a))
        return ft.core_agg_down_[(there.pod * half + a) * half +
                                 here.index % half];
      return here.up;
    }
    default: {
      // The gateway: straight to a core or client, through core a*k/2
      // towards agg a of any pod, and through core 0 for anything else.
      if (there.role == NodeRole::kCoreSwitch ||
          there.role == NodeRole::kClient)
        return there.down;
      const std::size_t c =
          there.role == NodeRole::kAggSwitch ? there.index * half : 0;
      return ft.place(ft.cores_[c]).down;
    }
  }
}

namespace {
/// The per-flow hash both server_path() and ecmp_path() pick an
/// equal-cost path with.
std::uint64_t flow_hash(FlowId flow) {
  return sim::splitmix64(static_cast<std::uint64_t>(flow.value()));
}
}  // namespace

std::vector<LinkId> FatTree::server_path(std::size_t src, std::size_t dst,
                                         FlowId flow) const {
  if (src >= servers_.size() || dst >= servers_.size())
    throw std::out_of_range("FatTree::server_path: bad server index");
  if (src == dst) return {};

  const auto half = static_cast<std::size_t>(cfg_.k / 2);
  const std::size_t p_s = pod_of_server(src), p_d = pod_of_server(dst);
  const std::size_t e_s = edge_index_of_server(src);
  const std::size_t e_d = edge_index_of_server(dst);

  const LinkId up = place(servers_[src]).up;
  const LinkId down = place(servers_[dst]).down;
  // Same edge switch: two hops, no choice to hash over.
  if (p_s == p_d && e_s == e_d) return {up, down};

  const std::uint64_t h = flow_hash(flow);
  if (p_s == p_d) {
    // Intra-pod: k/2 equal-cost paths, one per aggregation switch.
    const std::size_t a = h % half;
    return {up, edge_agg_up_[(p_s * half + e_s) * half + a],
            agg_edge_down_[(p_d * half + e_d) * half + a], down};
  }
  // Inter-pod: (k/2)^2 equal-cost paths, one per core. Core c = a*half+i
  // attaches to agg a in every pod.
  const std::size_t c = h % (half * half);
  const std::size_t a = c / half, i = c % half;
  return {up, edge_agg_up_[(p_s * half + e_s) * half + a],
          agg_core_up_[(p_s * half + a) * half + i],
          core_agg_down_[(p_d * half + a) * half + i],
          agg_edge_down_[(p_d * half + e_d) * half + a], down};
}

std::vector<std::vector<LinkId>> all_shortest_paths(const Network& net,
                                                    NodeId src, NodeId dst) {
  std::vector<std::vector<LinkId>> out;
  if (src == dst) return out;

  // BFS computing distances from src, then DFS over links that decrease
  // the distance-to-dst (computed by reverse BFS from dst over in-edges ==
  // forward BFS from dst because every link here is paired).
  const auto n = net.node_count();
  std::vector<std::int32_t> dist_to_dst(n, -1);
  {
    std::deque<NodeId> q;
    dist_to_dst[dst.index()] = 0;
    q.push_back(dst);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop_front();
      for (const LinkId l : net.out_links(u)) {
        const NodeId v = net.link(l).to();
        if (dist_to_dst[v.index()] == -1) {
          dist_to_dst[v.index()] =
              dist_to_dst[u.index()] + 1;
          q.push_back(v);
        }
      }
    }
  }
  if (dist_to_dst[src.index()] == -1) return out;

  std::vector<LinkId> cur;
  // Iterative DFS with an explicit stack of (node, next out-link index).
  struct Frame {
    NodeId node;
    std::size_t next = 0;
  };
  std::vector<Frame> stack{{src, 0}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.node == dst) {
      out.push_back(cur);
      stack.pop_back();
      if (!cur.empty()) cur.pop_back();
      continue;
    }
    const auto& links = net.out_links(f.node);
    bool descended = false;
    while (f.next < links.size()) {
      const LinkId l = links[f.next++];
      const NodeId v = net.link(l).to();
      if (dist_to_dst[v.index()] ==
          dist_to_dst[f.node.index()] - 1) {
        cur.push_back(l);
        stack.push_back({v, 0});
        descended = true;
        break;
      }
    }
    if (!descended && f.next >= links.size()) {
      stack.pop_back();
      if (!cur.empty()) cur.pop_back();
    }
  }
  return out;
}

std::vector<LinkId> ecmp_path(const Network& net, NodeId src, NodeId dst,
                              FlowId flow) {
  auto paths = all_shortest_paths(net, src, dst);
  if (paths.empty()) return {};
  // The flow id's hash picks the path, like a 5-tuple hash would.
  return paths[flow_hash(flow) % paths.size()];
}

}  // namespace scda::net
