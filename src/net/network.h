// Network: owns nodes and links, computes routes, moves packets.
//
// Routing is static shortest-path (BFS over hop count), computed once after
// the topology is built — appropriate for the tree topologies of the paper
// (unique paths) and deterministic for general graphs (out-links are
// explored in ascending link id, so the lowest-id link wins ties). The BFS
// skips leaves: a node whose only out-link and only in-link join it to the
// same neighbour, its parent (a server under its ToR, a client under the
// gateway), takes its parent's first hop. A node with one out-link takes
// its neighbour's routes, so on the datacenter fabrics the BFS runs from
// and over the switches only. Each node stores its routes as runs of
// consecutive destination ids that leave through the same out-link; a
// tree node has about one run per child subtree, so the tables grow with
// the node count rather than its square.
// A hop looks its link up by binary search over the node's runs. Packets
// are forwarded hop-by-hop through drop-tail links, whose queued and
// propagating packets all live in one PacketPool owned by the network.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulator.h"

namespace scda::net {

class Network {
 public:
  explicit Network(sim::Simulator& sim) : sim_(sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- construction -------------------------------------------------------
  NodeId add_node(NodeRole role, std::string name);

  /// Add a unidirectional link from `a` to `b`. Returns its LinkId.
  LinkId add_link(NodeId a, NodeId b, sim::BitRate capacity,
                  double prop_delay_s, std::int64_t queue_limit_bytes);

  /// Add a full-duplex link (two unidirectional links with equal parameters).
  /// Returns {a->b id, b->a id}.
  std::pair<LinkId, LinkId> add_duplex(NodeId a, NodeId b,
                                       sim::BitRate capacity,
                                       double prop_delay_s,
                                       std::int64_t queue_limit_bytes);

  /// Compute the route tables. Must be called after the topology is final
  /// and before any traffic is injected.
  void build_routes();

  /// Whether the route tables exist. Large fluid-only topologies (k=32
  /// fat-tree) skip build_routes(), whose BFS from every switch still
  /// takes most of their construction, and compute paths analytically
  /// instead.
  [[nodiscard]] bool routes_built() const noexcept { return routes_built_; }
  /// Total destination runs over all nodes (0 when routes were never
  /// built). The scale guard tests assert this stays 0 for analytic-route
  /// topologies and linear in the node count for trees.
  [[nodiscard]] std::size_t route_table_entries() const noexcept {
    return runs_.size();
  }

  // --- access ---------------------------------------------------------------
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }
  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(checked(id)); }
  [[nodiscard]] const Node& node(NodeId id) const {
    return *nodes_.at(checked(id));
  }
  [[nodiscard]] Link& link(LinkId id) {
    return *links_.at(id.index());
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    return *links_.at(id.index());
  }

  /// The link leaving `a` towards neighbour `b`; kInvalidLink if none.
  [[nodiscard]] LinkId link_between(NodeId a, NodeId b) const;

  /// Next hop from `at` towards `dst`; kInvalidNode when unreachable.
  [[nodiscard]] NodeId next_hop(NodeId at, NodeId dst) const;

  /// Ordered link ids on the path src -> dst (empty when src == dst).
  /// Throws when dst is unreachable.
  [[nodiscard]] std::vector<LinkId> path(NodeId src, NodeId dst) const;

  /// Packet slots the links' shared pool has allocated: the peak number of
  /// packets queued or propagating anywhere in the network at once.
  [[nodiscard]] std::size_t packet_slots() const noexcept {
    return pool_.capacity();
  }

  /// Links leaving a node (adjacency view for custom route computation,
  /// e.g. the widest-path selector of paper section IX).
  [[nodiscard]] const std::vector<LinkId>& out_links(NodeId n) const {
    return out_links_.at(checked(n));
  }

  // --- per-flow source routing (general topologies, paper section IX) ----
  /// Pin a flow to an explicit path (ordered link ids). Packets of the
  /// flow follow the pinned path instead of the destination-based tables;
  /// ACKs and reverse traffic still use the default routes. The path must
  /// be contiguous.
  void pin_flow_route(FlowId flow, const std::vector<LinkId>& path);
  void unpin_flow_route(FlowId flow);
  [[nodiscard]] bool has_pinned_route(FlowId flow) const {
    return pinned_.count(flow) != 0;
  }

  // --- traffic --------------------------------------------------------------
  /// Inject a packet at its source node; it is forwarded hop-by-hop until it
  /// reaches `p.dst` (or is dropped at a full queue).
  void send(Packet&& p);

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }

 private:
  std::size_t checked(NodeId id) const {
    if (!id.valid() || id.index() >= nodes_.size())
      throw std::out_of_range("Network: bad node id");
    return id.index();
  }

  /// Destinations from `first` up to the next run's `first` leave through
  /// `link` (kInvalidLink: unreachable).
  struct RouteRun {
    NodeId first;
    LinkId link;
  };

  /// The link leaving `at` towards `dst` (at != dst); kInvalidLink when
  /// unreachable. Binary search over `at`'s runs.
  [[nodiscard]] LinkId route(NodeId at, NodeId dst) const;

  void forward(Packet&& p, NodeId at);

  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Declared before links_, which refer to it, so it outlives them.
  PacketPool pool_;
  std::vector<std::unique_ptr<Link>> links_;
  /// adjacency: out_links_[node] = link ids leaving the node
  std::vector<std::vector<LinkId>> out_links_;
  /// Node n's runs are runs_[route_begin_[n] .. route_begin_[n + 1]),
  /// ascending by first destination, the first one starting at node 0.
  /// A node's own destination is a don't-care absorbed by a neighbouring
  /// run.
  std::vector<std::size_t> route_begin_;
  std::vector<RouteRun> runs_;
  /// pinned_[flow][at-node] = outgoing link (source-routed flows)
  std::unordered_map<FlowId, std::unordered_map<NodeId, LinkId>> pinned_;
  bool routes_built_ = false;
};

}  // namespace scda::net
