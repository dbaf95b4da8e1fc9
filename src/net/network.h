// Network: owns nodes and links, computes routes, moves packets.
//
// Nodes and links are held by value in two arrays that the fabric builders
// size once from their shape; finalize() then lays every node's out-links
// out in one CSR array, and the fabric is fixed from there on. Until then
// a Node& or Link& is valid only up to the next add_node or add_link that
// outgrows reserve().
//
// Routing is static shortest-path, answered one of two ways. A fabric
// that knows its shape sets a route hook and answers every lookup from it
// with no tables: ThreeTierTree, whose paths are unique, walks its
// preorder ids up or down. Otherwise build_routes() runs a BFS over hop
// count once after the topology is built — exact on trees and
// deterministic on general graphs (out-links are explored in ascending
// link id, so the lowest-id link wins ties). The BFS skips leaves: a node
// whose only out-link and only in-link join it to the same neighbour, its
// parent (a server under its ToR, a client under the gateway), takes its
// parent's first hop. A stub — a node with one out-link to a non-leaf plus
// any leaf children (a ToR, the gateway, a server, a client) — reaches
// everything through that link except its own leaves, so its row is
// derived from its neighbour's rather than searched; on the datacenter
// fabrics the BFS runs from the core and aggregation switches only. Each
// node stores its routes as runs of consecutive destination ids that
// leave through the same out-link; a tree node has about one run per
// child subtree, so the tables grow with the node count rather than its
// square, and a hop looks its link up by binary search over the node's
// runs. Packets are forwarded hop-by-hop through drop-tail links, whose
// queued and propagating packets all live in one PacketPool owned by the
// network.
#pragma once

#include <span>
#include <stdexcept>
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
  /// Size the node and link arrays for a fabric of known shape, so that
  /// building it allocates each array once.
  void reserve(std::size_t nodes, std::size_t links);

  NodeId add_node(NodeRole role);

  /// Add a unidirectional link from `a` to `b`. Returns its LinkId.
  /// Throws std::invalid_argument unless the capacity is positive, the
  /// propagation delay finite and non-negative, and the queue limit
  /// positive.
  LinkId add_link(NodeId a, NodeId b, sim::BitRate capacity,
                  double prop_delay_s, std::int64_t queue_limit_bytes);

  /// Add a full-duplex link (two unidirectional links with equal parameters).
  /// Returns {a->b id, b->a id}.
  std::pair<LinkId, LinkId> add_duplex(NodeId a, NodeId b,
                                       sim::BitRate capacity,
                                       double prop_delay_s,
                                       std::int64_t queue_limit_bytes);

  /// Fix the fabric and lay out the out-link adjacency; add_node and
  /// add_link throw from here on. Idempotent.
  void finalize();

  /// Compute the route tables (finalizing first). Must be called after the
  /// topology is final and before any traffic is injected.
  void build_routes();

  /// Answers a route from the fabric's own shape: the link leaving `at`
  /// towards `dst` (at != dst, both in range), kInvalidLink when `dst` is
  /// unreachable. Called with the context given to set_route_hook.
  using RouteHook = LinkId (*)(const void* ctx, NodeId at, NodeId dst);
  /// Answer every route through `hook` instead of route tables, which are
  /// then never read. Set by a fabric after finalize(), for its lifetime.
  void set_route_hook(RouteHook hook, const void* ctx) noexcept {
    route_hook_ = hook;
    route_ctx_ = ctx;
  }

  /// Whether routes can be answered: build_routes() ran or a route hook is
  /// set. Large fluid-only topologies (k=32 fat-tree) have neither, since
  /// the BFS from every switch would take most of their construction, and
  /// compute paths analytically instead.
  [[nodiscard]] bool has_routes() const noexcept {
    return routes_built_ || route_hook_ != nullptr;
  }
  /// Total destination runs over all nodes (0 when no tables were built).
  /// The scale guard tests assert this stays 0 for analytic-route
  /// topologies and linear in the node count for tables.
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
  [[nodiscard]] Node& node(NodeId id) { return nodes_[checked(id)]; }
  [[nodiscard]] const Node& node(NodeId id) const {
    return nodes_[checked(id)];
  }
  [[nodiscard]] Link& link(LinkId id) { return links_.at(id.index()); }
  [[nodiscard]] const Link& link(LinkId id) const {
    return links_.at(id.index());
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

  /// Links leaving a node in ascending link id (adjacency view for custom
  /// route computation, e.g. the widest-path selector of paper section
  /// IX). Throws before finalize().
  [[nodiscard]] std::span<const LinkId> out_links(NodeId n) const {
    if (!final_) throw std::logic_error("Network::out_links: not finalized");
    const std::size_t i = checked(n);
    return std::span<const LinkId>(out_ids_).subspan(
        out_begin_[i], out_begin_[i + 1] - out_begin_[i]);
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
  /// A node's runs: runs_[begin, end).
  struct RowSpan {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  /// The part of a link the route build reads, kept apart from the Link.
  struct LinkEnds {
    NodeId from;
    NodeId to;
  };

  /// The link leaving `at` towards `dst` (at != dst); kInvalidLink when
  /// unreachable. The route hook's answer, or a binary search over `at`'s
  /// runs.
  [[nodiscard]] LinkId route(NodeId at, NodeId dst) const;

  void forward(Packet&& p, NodeId at);
  /// Every link's delivery hook: `at` took `p` off a link of `net`.
  static void arrive(void* net, Packet&& p, NodeId at) {
    static_cast<Network*>(net)->forward(std::move(p), at);
  }

  sim::Simulator& sim_;
  std::vector<Node> nodes_;
  /// Declared before links_, which refer to it, so it outlives them.
  PacketPool pool_;
  /// Links move only while the fabric is built (see Link's move
  /// constructor); from finalize() on the array never changes size.
  std::vector<Link> links_;
  std::vector<LinkEnds> ends_;
  /// Node n's out-links are out_ids_[out_begin_[n] .. out_begin_[n + 1]),
  /// in ascending link id (filled by finalize()).
  std::vector<std::size_t> out_begin_;
  std::vector<LinkId> out_ids_;
  /// rows_[n]: node n's runs, ascending by first destination, the first
  /// one starting at node 0. A node's own destination is a don't-care
  /// absorbed by a neighbouring run.
  std::vector<RowSpan> rows_;
  std::vector<RouteRun> runs_;
  /// pinned_[flow][at-node] = outgoing link (source-routed flows)
  std::unordered_map<FlowId, std::unordered_map<NodeId, LinkId>> pinned_;
  RouteHook route_hook_ = nullptr;
  const void* route_ctx_ = nullptr;
  bool final_ = false;
  bool routes_built_ = false;
};

}  // namespace scda::net
