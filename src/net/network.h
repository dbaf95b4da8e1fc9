// Network: owns nodes and links, computes routes, moves packets.
//
// Nodes and links are held by value in two arrays that the fabric builders
// size once from their shape; finalize() then lays every node's out-links
// out in one CSR array, and the fabric is fixed from there on. Until then
// a Node& or Link& is valid only up to the next add_node or add_link that
// outgrows reserve().
//
// Routing is static shortest-path. A fabric builder knows its shape and
// sets a route hook that answers every lookup from it, with no tables:
// ThreeTierTree walks its preorder ids up or down its unique paths, while
// FatTree and LeafSpine pick, from the node's role and the destination's
// pod or leaf, the lowest-id link among the equal-cost next hops. A
// hand-built network calls build_routes() instead, which runs a BFS over
// hop count from every node into a dense node-by-node next-hop array:
// exact on trees and deterministic on general graphs (out-links are
// explored in ascending link id, so the lowest-id link wins ties, the
// choice the hooks make too). Its time and memory grow with the square of
// the node count, so it suits small networks. Packets are forwarded
// hop-by-hop through drop-tail links, whose queued and propagating packets
// all live in one PacketPool owned by the network; a packet that reaches
// its destination goes to the network's one local-delivery hook.
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

  /// Compute the next-hop table by a BFS from every node (finalizing
  /// first), for a network without a route hook. Must be called after the
  /// topology is final and before any traffic is injected. Quadratic in the
  /// node count.
  void build_routes();

  /// Answers a route from the fabric's own shape: the link leaving `at`
  /// towards `dst` (at != dst, both in range), kInvalidLink when `dst` is
  /// unreachable. Called with the context given to set_route_hook.
  using RouteHook = LinkId (*)(const void* ctx, NodeId at, NodeId dst);
  /// Answer every route through `hook` instead of a next-hop table, which
  /// is then never read. Set by a fabric after finalize(), for its
  /// lifetime.
  void set_route_hook(RouteHook hook, const void* ctx) noexcept {
    route_hook_ = hook;
    route_ctx_ = ctx;
  }

  /// Takes a packet that reached its destination node `p.dst`. Called with
  /// the context given to set_local_hook.
  using LocalHook = void (*)(void* ctx, Packet&& p);
  /// Hand every packet that reaches its destination to `hook` (the
  /// transport's demultiplexer). Without a hook such packets are
  /// discarded. A TransportManager sets it for its lifetime.
  void set_local_hook(LocalHook hook, void* ctx) noexcept {
    local_hook_ = hook;
    local_ctx_ = ctx;
  }

  /// Whether routes can be answered: build_routes() ran or a route hook is
  /// set.
  [[nodiscard]] bool has_routes() const noexcept {
    return routes_built_ || route_hook_ != nullptr;
  }
  /// Cells of the next-hop table build_routes() fills, node_count()
  /// squared; 0 for a fabric that routes through its hook.
  [[nodiscard]] std::size_t route_table_entries() const noexcept {
    return hops_.size();
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
  /// flow follow the pinned path instead of the destination-based routes;
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

  /// The part of a link the route build reads, kept apart from the Link.
  struct LinkEnds {
    NodeId from;
    NodeId to;
  };

  /// The link leaving `at` towards `dst` (at != dst); kInvalidLink when
  /// unreachable. The route hook's answer, or the next-hop table's.
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
  /// hops_[at * node_count() + dst]: the link leaving `at` towards `dst`,
  /// kInvalidLink when unreachable (filled by build_routes()).
  std::vector<LinkId> hops_;
  /// pinned_[flow][at-node] = outgoing link (source-routed flows)
  std::unordered_map<FlowId, std::unordered_map<NodeId, LinkId>> pinned_;
  RouteHook route_hook_ = nullptr;
  const void* route_ctx_ = nullptr;
  LocalHook local_hook_ = nullptr;
  void* local_ctx_ = nullptr;
  bool final_ = false;
  bool routes_built_ = false;
};

}  // namespace scda::net
