#include "net/fat_tree.h"

#include <deque>
#include <stdexcept>

namespace scda::net {

FatTree::FatTree(sim::Simulator& sim, const FatTreeConfig& cfg)
    : cfg_(cfg), net_(sim) {
  if (cfg.k < 2 || cfg.k % 2 != 0)
    throw std::invalid_argument("FatTree: k must be even and >= 2");
  const auto half = static_cast<std::size_t>(cfg.k / 2);
  const auto q = cfg.queue_limit_bytes;

  const auto n_cores = static_cast<std::size_t>(cfg.cores());
  const std::size_t n_switches = static_cast<std::size_t>(cfg.k) * half;
  const auto n_servers = static_cast<std::size_t>(cfg.n_servers());
  const auto n_clients = static_cast<std::size_t>(cfg.n_clients);
  // Nodes: gateway, cores, aggs and edges, servers, clients. Duplex links:
  // core-gateway, agg-core, edge-agg, server, client.
  net_.reserve(1 + n_cores + 2 * n_switches + n_servers + n_clients,
               2 * (n_cores + 2 * n_switches * half + n_servers + n_clients));

  gateway_ = net_.add_node(NodeRole::kGateway);

  for (std::int32_t c = 0; c < cfg.cores(); ++c) {
    const NodeId core = net_.add_node(NodeRole::kCoreSwitch);
    cores_.push_back(core);
    net_.add_duplex(core, gateway_, cfg.gw_bps, cfg.dc_delay_s, q);
  }

  for (std::int32_t p = 0; p < cfg.pods(); ++p) {
    // Aggregation switches: agg a connects to cores [a*k/2, (a+1)*k/2).
    for (std::size_t a = 0; a < half; ++a) {
      const NodeId agg = net_.add_node(NodeRole::kAggSwitch);
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
      const NodeId edge = net_.add_node(NodeRole::kTorSwitch);
      edges_.push_back(edge);
      for (std::size_t a = 0; a < half; ++a) {
        auto [up, down] =
            net_.add_duplex(edge, agg(static_cast<std::size_t>(p), a),
                            cfg.link_bps, cfg.dc_delay_s, q);
        edge_agg_up_.push_back(up);
        agg_edge_down_.push_back(down);
      }
      for (std::size_t s = 0; s < half; ++s) {
        const NodeId srv = net_.add_node(NodeRole::kServer);
        servers_.push_back(srv);
        auto [up, down] =
            net_.add_duplex(srv, edge, cfg.link_bps, cfg.dc_delay_s, q);
        server_up_.push_back(up);
        server_down_.push_back(down);
      }
    }
  }

  for (std::int32_t c = 0; c < cfg.n_clients; ++c) {
    const NodeId cl = net_.add_node(NodeRole::kClient);
    clients_.push_back(cl);
    net_.add_duplex(cl, gateway_, cfg.link_bps, cfg.wan_delay_s, q);
  }

  if (cfg.build_routes) {
    net_.build_routes();
  } else {
    net_.finalize();
  }
}

namespace {
/// splitmix64 finalizer — the same per-flow hash ecmp_path() applies, so
/// analytic and table-driven ECMP agree on "deterministic per flow id".
std::uint64_t flow_hash(FlowId flow) {
  std::uint64_t x =
      static_cast<std::uint64_t>(flow.value()) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
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

  // Same edge switch: two hops, no choice to hash over.
  if (p_s == p_d && e_s == e_d)
    return {server_up_[src], server_down_[dst]};

  const std::uint64_t h = flow_hash(flow);
  if (p_s == p_d) {
    // Intra-pod: k/2 equal-cost paths, one per aggregation switch.
    const std::size_t a = h % half;
    return {server_up_[src], edge_agg_up_[(p_s * half + e_s) * half + a],
            agg_edge_down_[(p_d * half + e_d) * half + a], server_down_[dst]};
  }
  // Inter-pod: (k/2)^2 equal-cost paths, one per core. Core c = a*half+i
  // attaches to agg a in every pod.
  const std::size_t c = h % (half * half);
  const std::size_t a = c / half, i = c % half;
  return {server_up_[src],
          edge_agg_up_[(p_s * half + e_s) * half + a],
          agg_core_up_[(p_s * half + a) * half + i],
          core_agg_down_[(p_d * half + a) * half + i],
          agg_edge_down_[(p_d * half + e_d) * half + a],
          server_down_[dst]};
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
  // splitmix64 of the flow id picks the path, like a 5-tuple hash would.
  std::uint64_t x =
      static_cast<std::uint64_t>(flow.value()) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return paths[x % paths.size()];
}

}  // namespace scda::net
