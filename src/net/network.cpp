#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/log.h"

namespace scda::net {

namespace {
[[noreturn]] void reject_link(const char* rule, double value) {
  char msg[128];
  std::snprintf(msg, sizeof msg, "Network::add_link: %s, got %g", rule,
                value);
  throw std::invalid_argument(msg);
}
}  // namespace

void Network::reserve(std::size_t nodes, std::size_t links) {
  nodes_.reserve(nodes);
  links_.reserve(links);
  ends_.reserve(links);
}

NodeId Network::add_node(NodeRole role) {
  if (final_) throw std::logic_error("Network::add_node after finalize");
  const auto id = NodeId::from_index(nodes_.size());
  nodes_.emplace_back(id, role);
  return id;
}

LinkId Network::add_link(NodeId a, NodeId b, sim::BitRate capacity,
                         double prop_delay_s,
                         std::int64_t queue_limit_bytes) {
  if (final_) throw std::logic_error("Network::add_link after finalize");
  checked(a);
  checked(b);
  if (a == b) throw std::invalid_argument("Network::add_link: self loop");
  if (!(capacity > sim::BitRate{}))
    reject_link("capacity must be > 0 bit/s", capacity.bps());
  if (!std::isfinite(prop_delay_s) || prop_delay_s < 0)
    reject_link("propagation delay must be finite and >= 0 s",
                prop_delay_s);
  if (queue_limit_bytes <= 0)
    reject_link("queue limit must be > 0 bytes",
                static_cast<double>(queue_limit_bytes));
  const auto id = LinkId::from_index(links_.size());
  links_.emplace_back(sim_, pool_, id, a, b, capacity, prop_delay_s,
                      queue_limit_bytes, &Network::arrive, this);
  ends_.push_back({a, b});
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

void Network::finalize() {
  if (final_) return;
  // Counting sort of the link ids by source node. It is stable, so each
  // node's out-links stay in ascending id.
  const std::size_t n = nodes_.size();
  out_begin_.assign(n + 1, 0);
  for (const LinkEnds& e : ends_) ++out_begin_[e.from.index() + 1];
  for (std::size_t v = 0; v < n; ++v) out_begin_[v + 1] += out_begin_[v];
  // out_begin_[v] is v's fill cursor and ends at v + 1's start, so one
  // shift up restores the starts.
  out_ids_.assign(ends_.size(), kInvalidLink);
  for (std::size_t l = 0; l < ends_.size(); ++l)
    out_ids_[out_begin_[ends_[l].from.index()]++] = LinkId::from_index(l);
  std::copy_backward(out_begin_.begin(), out_begin_.end() - 1,
                     out_begin_.end());
  out_begin_[0] = 0;
  final_ = true;
}

void Network::build_routes() {
  finalize();
  const std::size_t n = nodes_.size();
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
  for (std::size_t l = 0; l < ends_.size(); ++l) {
    const std::size_t v = ends_[l].to.index();
    if (in_degree[v]++ == 0) down[v] = LinkId::from_index(l);
  }
  std::vector<std::size_t> parent(n, kNoParent);
  for (std::size_t v = 0; v < n; ++v) {
    const auto out = out_links(NodeId::from_index(v));
    if (out.size() != 1 || in_degree[v] != 1) continue;
    const NodeId up = ends_[out[0].index()].to;
    if (ends_[down[v].index()].from == up) parent[v] = up.index();
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
    for (const LinkId lid : out_links(NodeId::from_index(u))) {
      const NodeId v = ends_[lid.index()].to;
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
  segments.reserve(n);
  for (std::size_t d = 0; d < n; ++d) {
    if (segments.empty() || segments.back().parent != parent[d])
      segments.push_back({d, parent[d]});
  }

  // A stub has exactly one arc; its other out-links lead to its own
  // leaves. Everything else it reaches, it reaches through that arc, so its
  // row is derived from its neighbour's. Every other node is a BFS source,
  // and so is one stub of each cycle of stubs. `order` lists the stubs
  // each after its neighbour: from each stub not yet placed, walk the
  // neighbour chain to a BFS source or a placed stub, then place the walk
  // back to front.
  enum class Kind : std::uint8_t { kSearch, kStub, kWalked, kPlaced };
  std::vector<Kind> kind(n);
  for (std::size_t v = 0; v < n; ++v)
    kind[v] = arcs_begin[v + 1] - arcs_begin[v] == 1 ? Kind::kStub
                                                     : Kind::kSearch;
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> queue;  // scratch: a walk, a BFS, a stub's own
  queue.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    queue.clear();
    std::size_t v = s;
    for (; kind[v] == Kind::kStub; v = arcs[arcs_begin[v]].to.index()) {
      kind[v] = Kind::kWalked;
      queue.push_back(v);
    }
    if (kind[v] == Kind::kWalked) kind[v] = Kind::kSearch;  // a cycle
    for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
      if (kind[*it] != Kind::kWalked) continue;
      kind[*it] = Kind::kPlaced;
      order.push_back(*it);
    }
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
  // reaches_all[s]: s's row has no unreachable run.
  std::vector<bool> reaches_all(n);
  rows_.assign(n, RowSpan{});
  runs_.clear();
  // Trees hold about two runs per node; other fabrics grow the array.
  runs_.reserve(links_.size() + n);
  const auto finish = [&](const Row& row) {
    rows_[row.self] = {row.begin, runs_.size()};
    reaches_all[row.self] = std::all_of(
        runs_.begin() + static_cast<std::ptrdiff_t>(row.begin), runs_.end(),
        [](const RouteRun& r) { return r.link.valid(); });
  };

  // BFS over the arcs from every source. For tree topologies this is
  // exact; for general graphs it yields deterministic shortest hop-count
  // paths. hop[d] is the link leaving the source towards d: arcs are
  // explored in ascending link id, so it is the lowest-id link to the BFS
  // first hop. Only the entries the previous BFS set are reset.
  std::vector<LinkId> hop(n, kInvalidLink);
  queue.clear();
  for (std::size_t s = 0; s < n; ++s) {
    if (kind[s] != Kind::kSearch) continue;
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
    Row row{runs_, s};
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
    finish(row);
  }

  // Each stub's row: its neighbour's, with every reachable run pointed at
  // the stub's arc, the neighbour itself reached through that arc too, and
  // the stub's own leaves through their down-links.
  for (const std::size_t s : order) {
    const Arc up = arcs[arcs_begin[s]];
    const std::size_t nb = up.to.index();
    // A leaf has no leaves of its own: when its parent reaches everything,
    // the emitter below would merge its runs into this one.
    if (parent[s] != kNoParent && reaches_all[nb]) {
      rows_[s] = {runs_.size(), runs_.size() + 1};
      runs_.push_back({NodeId{0}, up.link});
      reaches_all[s] = true;
      continue;
    }
    queue.assign(1, nb);
    for (const LinkId lid : out_links(NodeId::from_index(s))) {
      const std::size_t v = ends_[lid.index()].to.index();
      if (parent[v] == s) queue.push_back(v);
    }
    std::sort(queue.begin(), queue.end());
    Row row{runs_, s};
    std::size_t k = 0;
    // Destinations [first, last), which the neighbour reaches or not.
    const auto emit = [&](std::size_t first, std::size_t last, bool reached) {
      const LinkId via = reached ? up.link : kInvalidLink;
      for (; k < queue.size() && queue[k] < last; ++k) {
        const std::size_t own = queue[k];
        row.add(first, own, via);
        row.add(own, own + 1, own == nb ? up.link : down[own]);
        first = own + 1;
      }
      row.add(first, last, via);
    };
    if (reaches_all[nb]) {
      emit(0, n, true);
    } else {
      const RowSpan from = rows_[nb];
      for (std::size_t r = from.begin; r < from.end; ++r) {
        const std::size_t last =
            r + 1 < from.end ? runs_[r + 1].first.index() : n;
        emit(runs_[r].first.index(), last, runs_[r].link.valid());
      }
    }
    row.close();
    finish(row);
  }
  routes_built_ = true;
}

LinkId Network::route(NodeId at, NodeId dst) const {
  const std::size_t a = checked(at);
  checked(dst);
  if (route_hook_) return route_hook_(route_ctx_, at, dst);
  const RouteRun* first = runs_.data() + rows_[a].begin;
  const RouteRun* last = runs_.data() + rows_[a].end;
  const auto before = [](NodeId d, const RouteRun& r) { return d < r.first; };
  // The last run starting at or before dst; the first run starts at 0.
  return (std::upper_bound(first, last, dst, before) - 1)->link;
}

NodeId Network::next_hop(NodeId at, NodeId dst) const {
  if (!has_routes())
    throw std::logic_error("Network::next_hop: routes not built");
  if (checked(at) == checked(dst)) return at;
  const LinkId lid = route(at, dst);
  return lid.valid() ? ends_[lid.index()].to : kInvalidNode;
}

LinkId Network::link_between(NodeId a, NodeId b) const {
  for (const LinkId lid : out_links(a)) {
    if (ends_[lid.index()].to == b) return lid;
  }
  return kInvalidLink;
}

std::vector<LinkId> Network::path(NodeId src, NodeId dst) const {
  if (!has_routes())
    throw std::logic_error("Network::path: routes not built");
  std::vector<LinkId> out;
  NodeId at = src;
  while (at != dst) {
    const LinkId lid = route(at, dst);
    if (!lid.valid())
      throw std::runtime_error("Network::path: unreachable destination");
    out.push_back(lid);
    at = ends_[lid.index()].to;
  }
  return out;
}

void Network::pin_flow_route(FlowId flow, const std::vector<LinkId>& path) {
  if (path.empty())
    throw std::invalid_argument("pin_flow_route: empty path");
  std::unordered_map<NodeId, LinkId> hops;
  NodeId at = ends_.at(path.front().index()).from;
  for (const LinkId lid : path) {
    const LinkEnds& e = ends_.at(lid.index());
    if (e.from != at)
      throw std::invalid_argument("pin_flow_route: path not contiguous");
    hops[at] = lid;
    at = e.to;
  }
  pinned_[flow] = std::move(hops);
}

void Network::unpin_flow_route(FlowId flow) { pinned_.erase(flow); }

void Network::send(Packet&& p) {
  if (!has_routes())
    throw std::logic_error("Network::send: routes not built");
  forward(std::move(p), p.src);
}

void Network::forward(Packet&& p, NodeId at) {
  if (at == p.dst) {
    nodes_[checked(at)].deliver_local(std::move(p));
    return;
  }
  // Source-routed flows follow their pinned path (data direction only;
  // the reverse direction has no entry at these nodes and falls through).
  if (!pinned_.empty() && p.type == PacketType::kData) {
    const auto fit = pinned_.find(p.flow);
    if (fit != pinned_.end()) {
      const auto hit = fit->second.find(at);
      if (hit != fit->second.end()) {
        (void)links_[hit->second.index()].enqueue(std::move(p));
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
  (void)links_[lid.index()].enqueue(std::move(p));
}

}  // namespace scda::net
