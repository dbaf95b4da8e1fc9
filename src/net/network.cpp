#include "net/network.h"

#include <algorithm>
#include <utility>

#include "util/log.h"

namespace scda::net {

NodeId Network::add_node(NodeRole role, std::string name) {
  if (routes_built_)
    throw std::logic_error("Network::add_node after build_routes");
  const auto id = NodeId::from_index(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id, role, std::move(name)));
  out_links_.emplace_back();
  return id;
}

LinkId Network::add_link(NodeId a, NodeId b, sim::BitRate capacity,
                         double prop_delay_s,
                         std::int64_t queue_limit_bytes) {
  if (routes_built_)
    throw std::logic_error("Network::add_link after build_routes");
  checked(a);
  checked(b);
  if (a == b) throw std::invalid_argument("Network::add_link: self loop");
  if (capacity <= sim::BitRate{})
    throw std::invalid_argument("Network::add_link: capacity must be > 0");
  const auto id = LinkId::from_index(links_.size());
  links_.push_back(std::make_unique<Link>(sim_, pool_, id, a, b, capacity,
                                          prop_delay_s, queue_limit_bytes));
  Link* raw = links_.back().get();
  raw->set_deliver([this, to = b](Packet&& p) { forward(std::move(p), to); });
  out_links_[a.index()].push_back(id);
  return id;
}

std::pair<LinkId, LinkId> Network::add_duplex(NodeId a, NodeId b,
                                              sim::BitRate capacity,
                                              double prop_delay_s,
                                              std::int64_t queue_limit_bytes) {
  const LinkId ab = add_link(a, b, capacity, prop_delay_s,
                             queue_limit_bytes);
  const LinkId ba = add_link(b, a, capacity, prop_delay_s,
                             queue_limit_bytes);
  return {ab, ba};
}

void Network::build_routes() {
  const std::size_t n = nodes_.size();
  // A node with one out-link reaches what its neighbour reaches, and the
  // neighbour itself, all through that link: its row is derived from the
  // neighbour's. Every other node, and one whose neighbour also has a
  // single out-link, runs its own BFS.
  const auto derived = [&](std::size_t s) {
    if (out_links_[s].size() != 1) return false;
    const NodeId nb = links_[out_links_[s][0].index()]->to();
    return out_links_[nb.index()].size() != 1;
  };
  // A leaf is a node whose only out-link and only in-link both join it to
  // the same neighbour, its parent: a server under its ToR, a client under
  // the gateway. A BFS reaches a leaf only from its parent, which is then
  // already visited, so the leaf discovers nothing: dropping the arcs into
  // leaves changes no other node's first hop. A leaf destination leaves
  // the source through the source's own link to it (down[], the leaf's one
  // in-link) when the source is its parent, and through the parent's hop
  // otherwise.
  constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  std::vector<std::size_t> in_degree(n, 0);
  std::vector<LinkId> down(n, kInvalidLink);
  for (const auto& l : links_) {
    const std::size_t v = l->to().index();
    if (in_degree[v]++ == 0) down[v] = l->id();
  }
  std::vector<std::size_t> parent(n, kNoParent);
  for (std::size_t v = 0; v < n; ++v) {
    if (out_links_[v].size() != 1 || in_degree[v] != 1) continue;
    const NodeId up = links_[out_links_[v][0].index()]->to();
    if (links_[down[v].index()]->from() == up) parent[v] = up.index();
  }
  // Out-links to non-leaves, flat, in ascending link id per node.
  struct Arc {
    NodeId to;
    LinkId link;
  };
  std::vector<Arc> arcs;
  arcs.reserve(links_.size());
  std::vector<std::size_t> arcs_begin(n + 1);
  for (std::size_t u = 0; u < n; ++u) {
    arcs_begin[u] = arcs.size();
    for (const LinkId lid : out_links_[u]) {
      const NodeId v = links_[lid.index()]->to();
      if (parent[v.index()] == kNoParent) arcs.push_back({v, lid});
    }
  }
  arcs_begin[n] = arcs.size();
  // Destination segments: a run of consecutive non-leaves, or of
  // consecutive leaves of one parent, which all share that parent's hop.
  struct Segment {
    std::size_t first;
    std::size_t parent;
  };
  std::vector<Segment> segments;
  for (std::size_t d = 0; d < n; ++d) {
    if (segments.empty() || segments.back().parent != parent[d])
      segments.push_back({d, parent[d]});
  }

  // Appends node `self`'s runs for ascending destinations. Its own
  // destination is a don't-care: a run that would start there starts one
  // later, so the preceding run absorbs it.
  struct Row {
    std::vector<RouteRun>& runs;
    std::size_t self;
    std::size_t begin = runs.size();
    /// Destinations [first, last) leave through `link`.
    void add(std::size_t first, std::size_t last, LinkId link) {
      if (first == self) ++first;
      if (first >= last) return;
      if (runs.size() > begin && runs.back().link == link) return;
      runs.push_back({NodeId::from_index(first), link});
    }
    /// The row's first run covers destination 0.
    void close() {
      if (runs.size() == begin) runs.push_back({NodeId{0}, kInvalidLink});
      runs[begin].first = NodeId{0};
    }
  };

  // BFS over the arcs from every node whose row is not derived. For tree
  // topologies this is exact; for general graphs it yields deterministic
  // shortest hop-count paths. hop[d] is the link leaving the source
  // towards d: arcs are explored in ascending link id, so it is the
  // lowest-id link to the BFS first hop. Only the entries the previous BFS
  // set are reset. reaches_all[s]: s's row has no unreachable run.
  std::vector<RouteRun> bfs_runs;
  std::vector<std::size_t> bfs_begin(n + 1);
  std::vector<bool> reaches_all(n);
  std::vector<LinkId> hop(n, kInvalidLink);
  std::vector<std::size_t> queue;
  for (std::size_t s = 0; s < n; ++s) {
    bfs_begin[s] = bfs_runs.size();
    if (derived(s)) continue;
    for (const std::size_t u : queue) hop[u] = kInvalidLink;
    queue.assign(1, s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t u = queue[head];
      for (std::size_t a = arcs_begin[u]; a < arcs_begin[u + 1]; ++a) {
        const std::size_t v = arcs[a].to.index();
        if (v == s || hop[v].valid()) continue;
        hop[v] = (u == s) ? arcs[a].link : hop[u];
        queue.push_back(v);
      }
    }
    Row row{bfs_runs, s};
    for (std::size_t g = 0; g < segments.size(); ++g) {
      const std::size_t first = segments[g].first;
      const std::size_t last =
          g + 1 < segments.size() ? segments[g + 1].first : n;
      const std::size_t p = segments[g].parent;
      if (p == kNoParent) {
        for (std::size_t d = first; d < last; ++d) row.add(d, d + 1, hop[d]);
      } else if (p == s) {
        for (std::size_t d = first; d < last; ++d) row.add(d, d + 1, down[d]);
      } else {
        row.add(first, last, hop[p]);
      }
    }
    row.close();
    reaches_all[s] = std::all_of(
        bfs_runs.begin() + static_cast<std::ptrdiff_t>(row.begin),
        bfs_runs.end(), [](const RouteRun& r) { return r.link.valid(); });
  }
  bfs_begin[n] = bfs_runs.size();

  // Lay the rows out in node order, deriving the single-link ones.
  route_begin_.assign(n + 1, 0);
  runs_.clear();
  for (std::size_t s = 0; s < n; ++s) {
    route_begin_[s] = runs_.size();
    if (!derived(s)) {
      runs_.insert(runs_.end(), bfs_runs.data() + bfs_begin[s],
                   bfs_runs.data() + bfs_begin[s + 1]);
      continue;
    }
    const LinkId link = out_links_[s][0];
    const std::size_t nb = links_[link.index()]->to().index();
    if (reaches_all[nb]) {  // everything but s is reached through nb
      runs_.push_back({NodeId{0}, link});
      continue;
    }
    Row row{runs_, s};
    for (std::size_t r = bfs_begin[nb]; r < bfs_begin[nb + 1]; ++r) {
      const std::size_t first = bfs_runs[r].first.index();
      const std::size_t last =
          r + 1 < bfs_begin[nb + 1] ? bfs_runs[r + 1].first.index() : n;
      const LinkId via = bfs_runs[r].link.valid() ? link : kInvalidLink;
      if (via.valid() || nb < first || nb >= last) {
        row.add(first, last, via);
      } else {  // the neighbour's own slot sits inside an unreachable run
        row.add(first, nb, via);
        row.add(nb, nb + 1, link);
        row.add(nb + 1, last, via);
      }
    }
    row.close();
  }
  route_begin_[n] = runs_.size();
  routes_built_ = true;
}

LinkId Network::route(NodeId at, NodeId dst) const {
  const std::size_t a = checked(at);
  checked(dst);
  const RouteRun* first = runs_.data() + route_begin_[a];
  const RouteRun* last = runs_.data() + route_begin_[a + 1];
  const auto before = [](NodeId d, const RouteRun& r) { return d < r.first; };
  // The last run starting at or before dst; the first run starts at 0.
  return (std::upper_bound(first, last, dst, before) - 1)->link;
}

NodeId Network::next_hop(NodeId at, NodeId dst) const {
  if (!routes_built_)
    throw std::logic_error("Network::next_hop: routes not built");
  if (checked(at) == checked(dst)) return at;
  const LinkId lid = route(at, dst);
  return lid.valid() ? links_[lid.index()]->to() : kInvalidNode;
}

LinkId Network::link_between(NodeId a, NodeId b) const {
  for (const LinkId lid : out_links_.at(checked(a))) {
    if (links_[lid.index()]->to() == b) return lid;
  }
  return kInvalidLink;
}

std::vector<LinkId> Network::path(NodeId src, NodeId dst) const {
  if (!routes_built_) throw std::logic_error("Network::path: routes not built");
  std::vector<LinkId> out;
  NodeId at = src;
  while (at != dst) {
    const LinkId lid = route(at, dst);
    if (!lid.valid())
      throw std::runtime_error("Network::path: unreachable destination");
    out.push_back(lid);
    at = links_[lid.index()]->to();
  }
  return out;
}

void Network::pin_flow_route(FlowId flow, const std::vector<LinkId>& path) {
  if (path.empty())
    throw std::invalid_argument("pin_flow_route: empty path");
  std::unordered_map<NodeId, LinkId> hops;
  NodeId at = links_[path.front().index()]->from();
  for (const LinkId lid : path) {
    const Link& l = *links_.at(lid.index());
    if (l.from() != at)
      throw std::invalid_argument("pin_flow_route: path not contiguous");
    hops[at] = lid;
    at = l.to();
  }
  pinned_[flow] = std::move(hops);
}

void Network::unpin_flow_route(FlowId flow) { pinned_.erase(flow); }

void Network::send(Packet&& p) {
  if (!routes_built_) throw std::logic_error("Network::send: routes not built");
  forward(std::move(p), p.src);
}

void Network::forward(Packet&& p, NodeId at) {
  if (at == p.dst) {
    nodes_[checked(at)]->deliver_local(std::move(p));
    return;
  }
  // Source-routed flows follow their pinned path (data direction only;
  // the reverse direction has no entry at these nodes and falls through).
  if (!pinned_.empty() && p.type == PacketType::kData) {
    const auto fit = pinned_.find(p.flow);
    if (fit != pinned_.end()) {
      const auto hit = fit->second.find(at);
      if (hit != fit->second.end()) {
        (void)links_[hit->second.index()]->enqueue(
            std::move(p));
        return;
      }
    }
  }
  const LinkId lid = route(at, p.dst);
  if (!lid.valid()) {
    SCDA_LOG_WARN("network: no route from %d to %d, packet dropped",
                  at.value(), p.dst.value());
    return;
  }
  // Drop-tail: enqueue may refuse the packet; loss is recovered by the
  // transport layer, exactly as in the real network.
  (void)links_[lid.index()]->enqueue(std::move(p));
}

}  // namespace scda::net
