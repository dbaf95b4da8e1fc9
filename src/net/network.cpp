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
  // A BFS from every node over its out-links in ascending link id: hop[v]
  // is the link leaving the source towards v, the lowest-id link to the
  // first hop of the first shortest path found.
  const std::size_t n = nodes_.size();
  hops_.assign(n * n, kInvalidLink);
  std::vector<std::size_t> queue;
  queue.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    LinkId* const hop = hops_.data() + s * n;
    queue.assign(1, s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t u = queue[head];
      for (const LinkId lid : out_links(NodeId::from_index(u))) {
        const std::size_t v = ends_[lid.index()].to.index();
        if (v == s || hop[v].valid()) continue;
        hop[v] = u == s ? lid : hop[u];
        queue.push_back(v);
      }
    }
  }
  routes_built_ = true;
}

LinkId Network::route(NodeId at, NodeId dst) const {
  const std::size_t a = checked(at);
  const std::size_t d = checked(dst);
  if (route_hook_) return route_hook_(route_ctx_, at, dst);
  return hops_[a * nodes_.size() + d];
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
  // A packet addressed to its own source is delivered without the route
  // lookup that range-checks the ids.
  checked(p.src);
  forward(std::move(p), p.src);
}

void Network::forward(Packet&& p, NodeId at) {
  if (at == p.dst) {
    if (local_hook_) local_hook_(local_ctx_, std::move(p));
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
