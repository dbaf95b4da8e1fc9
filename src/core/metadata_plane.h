// MetadataPlane: the FES and the name nodes behind it (paper sections III
// and VIII-A), plus their fault tolerance (docs/scenarios.md).
//
// Every metadata request is keyed onto one shard by the FES hash. Without
// NNS churn each shard is one NameNode and a request goes straight into
// its service queue. With NNS churn configured each shard also gets a
// standby that mirrors every mutation; requests carry a client-side
// timeout and retry with backoff; and a recovering instance re-syncs its
// map from the live peer over a background flow before it serves again.
// Each instance's NameNode::State is the only record of its liveness.
//
// The plane reaches the data plane through one hook: the SyncFlowFn that
// starts a re-sync flow between two host servers. Cloud wires it to
// start_data_flow; tests drive the state machine with a fake.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/block_server.h"
#include "core/name_node.h"
#include "core/params.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace scda::core {

/// Metadata-plane fault-tolerance counters (docs/scenarios.md), reported
/// as `metadata.*` metric ids by every run (zeros without NNS churn).
struct MetadataStats {
  std::uint64_t requests_timed_out = 0;  ///< client deadline expiries
  std::uint64_t retries = 0;             ///< re-dispatches (backoff path)
  std::uint64_t failovers = 0;           ///< requests served by a standby
  std::uint64_t unavailable = 0;   ///< dispatches finding no live replica
  std::uint64_t requests_dropped = 0;  ///< attempts exhausted (failed op)
  std::uint64_t mirror_updates = 0;    ///< primary->standby record copies
  std::uint64_t resyncs_started = 0;   ///< recovery sync flows launched
  std::uint64_t resyncs_completed = 0;
  std::uint64_t resync_bytes = 0;      ///< payload moved by sync flows
};

class MetadataPlane {
 public:
  /// Start the re-sync flow of `instance`: `bytes` from host server
  /// `src_host` (the live peer's) to `dst_host`. Returns the flow id; the
  /// owner reports its end through resync_completed/resync_aborted.
  using SyncFlowFn = std::function<net::FlowId(
      std::size_t instance, std::size_t src_host, std::size_t dst_host,
      std::int64_t bytes)>;

  /// `failover` builds the standbys and turns on mirroring, timeout/retry
  /// and re-sync; `servers` host the instances' sync traffic.
  MetadataPlane(sim::Simulator& sim, const ScdaParams& params, bool failover,
                const std::vector<BlockServer>& servers);

  MetadataPlane(const MetadataPlane&) = delete;
  MetadataPlane& operator=(const MetadataPlane&) = delete;

  void set_sync_flow_fn(SyncFlowFn fn) { start_sync_ = std::move(fn); }

  [[nodiscard]] bool failover_enabled() const noexcept {
    return nodes_.size() > shard_count();
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return fes_->nns_count();
  }
  /// Instances: shard primaries first, then standbys (instance
  /// shard_count() + i is shard i's standby). Without failover there are
  /// only the primaries.
  [[nodiscard]] std::size_t instance_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] NameNode& instance(std::size_t i) { return *nodes_.at(i); }
  /// The other instance of `node`'s shard, or nullptr without failover.
  [[nodiscard]] NameNode* peer(const NameNode& node);
  [[nodiscard]] FrontEnd& fes() noexcept { return *fes_; }

  [[nodiscard]] std::size_t shard_of(ContentId id) const {
    return fes_->dispatch_index(static_cast<std::uint64_t>(id));
  }
  /// The shard's serving node: the primary unless it is down or syncing,
  /// else the standby, else nullptr (degraded window — requests queue and
  /// retry).
  [[nodiscard]] NameNode* serving(std::size_t shard) const;
  /// The authoritative metadata map of a shard: its serving node, or the
  /// primary when the whole shard is down (bookkeeping continues on the
  /// durable map; serving requests is gated separately by serving()).
  [[nodiscard]] NameNode& authority(std::size_t shard) const;
  [[nodiscard]] NameNode& owner(ContentId id) const {
    return authority(shard_of(id));
  }

  /// Submit a metadata request keyed by `key`. `fn` runs on whichever
  /// instance ends up serving it; `on_give_up` fires when every attempt is
  /// exhausted. Without failover this is one direct NameNode submit.
  void submit(std::uint64_t key, std::function<void(NameNode&)> fn,
              std::function<void()> on_give_up);
  /// Mirror one record from the node that just mutated it to its peer
  /// (intra-DC consistency hop; the peer applies the copy one ctrl_dc
  /// latency later).
  void mirror(NameNode& from, ContentId id);

  /// Take an instance down: it stops serving and its queued requests die
  /// with it. Returns the shard's in-flight sync flow, which involved the
  /// dead instance at one end, for the caller to abort.
  [[nodiscard]] net::FlowId fail(std::size_t instance);
  /// Bring an instance back: it queues a re-sync from its serving peer, or
  /// rejoins at once (with whatever map it kept) when the peer is not
  /// serving.
  void recover(std::size_t instance);
  /// Launch queued re-syncs (control tick). A sync waits while its peer is
  /// not serving or a host server is down, and is re-checked when its
  /// setup RPC lands.
  void drain_resync_queue();
  /// The sync flow of `instance` delivered `bytes`: adopt the peer's map
  /// and serve again.
  void resync_completed(std::size_t instance, std::int64_t bytes);
  /// The sync flow of `instance` was cut: queue a fresh attempt if the
  /// instance still waits for one.
  void resync_aborted(std::size_t instance);

  // --- statistics ------------------------------------------------------------
  [[nodiscard]] const MetadataStats& stats() const noexcept { return stats_; }
  /// Content records on each shard's authority map.
  [[nodiscard]] std::size_t contents_stored() const;
  /// Mean queueing + service delay over every request served by any
  /// instance, standbys included.
  [[nodiscard]] double mean_delay() const;
  /// Control RPCs the plane itself sent (retries, mirrors, sync setup).
  [[nodiscard]] std::uint64_t control_messages() const noexcept {
    return ctrl_messages_;
  }
  [[nodiscard]] std::uint64_t control_bytes() const noexcept {
    return ctrl_bytes_;
  }

 private:
  /// One client-side request on the failover path. Its handler, its
  /// timeouts and its give-up can all be pending at once; `done` lets
  /// only the first of them act.
  struct Request {
    std::function<void(NameNode&)> fn;
    std::function<void()> on_give_up;
    bool done = false;
  };
  /// Re-sync progress of one shard.
  struct ShardSync {
    net::FlowId flow = net::kInvalidFlow;  ///< in-flight sync flow
    bool pending = false;  ///< setup RPC posted, flow not yet up
  };

  void dispatch(std::size_t shard, std::int32_t attempt,
                const std::shared_ptr<Request>& req);
  void retry(std::size_t shard, std::int32_t attempt,
             const std::shared_ptr<Request>& req);
  [[nodiscard]] std::size_t peer_of(std::size_t instance) const {
    const std::size_t n = shard_count();
    return instance < n ? instance + n : instance - n;
  }
  /// Host server of an instance: the control plane is consolidated on a
  /// few servers (paper section III), so sync traffic crosses the fabric.
  [[nodiscard]] std::size_t host_of(std::size_t instance) const {
    return instance % servers_.size();
  }
  /// A sync of `instance` can run: its peer serves and both hosts are up.
  [[nodiscard]] bool sync_ready(std::size_t instance) const;
  void count_ctrl(std::uint64_t messages, std::uint64_t bytes) {
    ctrl_messages_ += messages;
    ctrl_bytes_ += bytes;
  }

  sim::Simulator& sim_;
  const ScdaParams& params_;
  const std::vector<BlockServer>& servers_;
  std::vector<std::unique_ptr<NameNode>> nodes_;
  std::unique_ptr<FrontEnd> fes_;
  std::vector<ShardSync> sync_;
  /// Instances waiting for a re-sync (drained on control ticks).
  std::deque<std::size_t> resync_queue_;
  SyncFlowFn start_sync_;
  MetadataStats stats_;
  std::uint64_t ctrl_messages_ = 0;
  std::uint64_t ctrl_bytes_ = 0;
};

}  // namespace scda::core
