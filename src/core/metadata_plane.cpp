#include "core/metadata_plane.h"

#include <algorithm>
#include <utility>

namespace scda::core {

using State = NameNode::State;

MetadataPlane::MetadataPlane(sim::Simulator& sim, const ScdaParams& params,
                             bool failover,
                             const std::vector<BlockServer>& servers)
    : sim_(sim), params_(params), servers_(servers) {
  // Name nodes behind the FES (section III-A). With failover every shard
  // also gets a standby: instance n + i backs shard i.
  const auto n = static_cast<std::size_t>(params_.n_name_nodes);
  const std::size_t count = failover ? 2 * n : n;
  for (std::size_t i = 0; i < count; ++i)
    nodes_.push_back(std::make_unique<NameNode>(
        sim_, static_cast<std::int32_t>(i), params_.nns_service_time_s));
  std::vector<NameNode*> primaries;
  for (std::size_t i = 0; i < n; ++i) primaries.push_back(nodes_[i].get());
  fes_ = std::make_unique<FrontEnd>(std::move(primaries));
  if (failover) sync_.resize(n);
}

NameNode* MetadataPlane::peer(const NameNode& node) {
  if (!failover_enabled()) return nullptr;
  return nodes_[peer_of(static_cast<std::size_t>(node.index()))].get();
}

NameNode* MetadataPlane::serving(std::size_t shard) const {
  if (nodes_[shard]->alive()) return nodes_[shard].get();
  if (failover_enabled() && nodes_[peer_of(shard)]->alive())
    return nodes_[peer_of(shard)].get();
  return nullptr;
}

NameNode& MetadataPlane::authority(std::size_t shard) const {
  NameNode* node = serving(shard);
  return node != nullptr ? *node : *nodes_[shard];
}

// --------------------------------------------------------------------------
// requests: dispatch, timeout, retry with backoff, mirroring
// --------------------------------------------------------------------------

void MetadataPlane::submit(std::uint64_t key,
                           std::function<void(NameNode&)> fn,
                           std::function<void()> on_give_up) {
  const std::size_t shard = fes_->dispatch_index(key);
  if (!failover_enabled()) {
    // Historical path: direct submit, no timeout machinery, no rng draws —
    // byte-identical event sequence for churn-free runs.
    NameNode* node = nodes_[shard].get();
    node->submit([node, f = std::move(fn)] { f(*node); });
    return;
  }
  auto req = std::make_shared<Request>();
  req->fn = std::move(fn);
  req->on_give_up = std::move(on_give_up);
  dispatch(shard, 1, req);
}

void MetadataPlane::dispatch(std::size_t shard, std::int32_t attempt,
                             const std::shared_ptr<Request>& req) {
  if (req->done) return;
  // Re-dispatches pay the FES hop again (client -> FES -> NNS RPC pair).
  if (attempt > 1) count_ctrl(2, 2 * kCtrlMsgBytes);
  NameNode* node = serving(shard);
  if (node == nullptr) {
    // Degraded window: both shard instances down (or resyncing). The
    // request is queued behind the backoff timer, never lost.
    ++stats_.unavailable;
    retry(shard, attempt, req);
    return;
  }
  if (node != nodes_[shard].get()) ++stats_.failovers;
  const double delay = node->submit([req, node] {
    if (req->done) return;
    req->done = true;
    req->fn(*node);
  });
  if (delay < 0) {  // raced a same-timestamp failure
    ++stats_.unavailable;
    retry(shard, attempt, req);
    return;
  }
  // Client-side deadline: if the NNS dies with the request queued, the
  // handler never fires and this timer re-drives the request.
  sim_.post_in(sim::secs(params_.metadata_timeout_s),
               [this, shard, attempt, req] {
                 if (req->done) return;
                 ++stats_.requests_timed_out;
                 retry(shard, attempt, req);
               });
}

void MetadataPlane::retry(std::size_t shard, std::int32_t attempt,
                          const std::shared_ptr<Request>& req) {
  if (req->done) return;
  if (attempt >= params_.metadata_max_attempts) {
    req->done = true;
    ++stats_.requests_dropped;
    if (req->on_give_up) req->on_give_up();
    return;
  }
  ++stats_.retries;
  // Exponential backoff, doubling per attempt, scaled by 1 + U[0,1) *
  // jitter from the run's seeded RNG: the draw happens in event order, so
  // runs stay deterministic per seed.
  constexpr double kBackoffBaseS = 0.05;
  constexpr double kBackoffJitter = 0.5;
  double backoff = kBackoffBaseS;
  for (std::int32_t i = 1; i < attempt; ++i) backoff *= 2.0;
  backoff *= 1.0 + kBackoffJitter * sim_.rng().uniform();
  sim_.post_in(sim::secs(backoff), [this, shard, attempt, req] {
    dispatch(shard, attempt + 1, req);
  });
}

void MetadataPlane::mirror(NameNode& from, ContentId id) {
  NameNode* to = peer(from);
  if (to == nullptr || id == kInvalidContent) return;
  if (!to->alive()) return;  // a down/syncing peer catches up via resync
  const ContentMeta* m = from.find(id);
  if (m == nullptr) return;
  ++stats_.mirror_updates;
  count_ctrl(1, kCtrlMsgBytes +
                    static_cast<std::uint64_t>(params_.nns_meta_entry.bytes()));
  // The record copy rides one intra-DC control hop; the peer applies
  // whatever was on the wire (by value) when it arrives.
  sim_.post_in(sim::secs(params_.ctrl_dc_latency_s), [to, copy = *m] {
    if (to->alive()) to->apply_mirror(copy);
  });
}

// --------------------------------------------------------------------------
// instance failure, recovery and re-sync
// --------------------------------------------------------------------------

net::FlowId MetadataPlane::fail(std::size_t instance) {
  if (!failover_enabled() || instance >= nodes_.size())
    return net::kInvalidFlow;
  NameNode& node = *nodes_[instance];
  if (node.state() == State::kDown) return net::kInvalidFlow;
  node.set_state(State::kDown);
  // Any in-flight resync in this shard involves the dead instance either
  // as the recovering node or as the sync source.
  return std::exchange(sync_[instance % shard_count()].flow,
                       net::kInvalidFlow);
}

void MetadataPlane::recover(std::size_t instance) {
  if (!failover_enabled() || instance >= nodes_.size()) return;
  NameNode& node = *nodes_[instance];
  if (node.state() != State::kDown) return;
  if (!nodes_[peer_of(instance)]->alive()) {
    // No live source to sync from: rejoin immediately with whatever map
    // survived (possibly stale; mirrors resume from here).
    node.set_state(State::kServing);
    return;
  }
  node.set_state(State::kSyncing);
  resync_queue_.push_back(instance);
}

bool MetadataPlane::sync_ready(std::size_t instance) const {
  return nodes_[peer_of(instance)]->alive() &&
         !servers_[host_of(peer_of(instance))].failed() &&
         !servers_[host_of(instance)].failed();
}

void MetadataPlane::drain_resync_queue() {
  if (resync_queue_.empty()) return;
  std::deque<std::size_t> retry;
  while (!resync_queue_.empty()) {
    const std::size_t instance = resync_queue_.front();
    resync_queue_.pop_front();
    if (nodes_[instance]->state() != State::kSyncing)
      continue;  // stale entry (died or rejoined)
    ShardSync& sync = sync_[instance % shard_count()];
    if (sync.flow != net::kInvalidFlow || sync.pending)
      continue;  // duplicate entry; the running sync covers it
    if (!sync_ready(instance)) {
      retry.push_back(instance);  // wait for a live source and live hosts
      continue;
    }
    const std::int64_t bytes = std::max<std::int64_t>(
        1500, static_cast<std::int64_t>(
                  nodes_[peer_of(instance)]->content_count()) *
                  params_.nns_meta_entry.bytes());
    sync.pending = true;
    ++stats_.resyncs_started;
    count_ctrl(2, 2 * kCtrlMsgBytes);
    sim_.post_in(sim::secs(2 * params_.ctrl_dc_latency_s),
                 [this, instance, bytes] {
                   // Conditions may have changed during the setup RPC.
                   ShardSync& s = sync_[instance % shard_count()];
                   s.pending = false;
                   if (nodes_[instance]->state() != State::kSyncing)
                     return;  // died again during setup
                   if (!sync_ready(instance)) {
                     resync_queue_.push_back(instance);
                     return;
                   }
                   s.flow = start_sync_(instance, host_of(peer_of(instance)),
                                        host_of(instance), bytes);
                 });
  }
  for (const std::size_t i : retry) resync_queue_.push_back(i);
}

void MetadataPlane::resync_completed(std::size_t instance,
                                     std::int64_t bytes) {
  stats_.resync_bytes += static_cast<std::uint64_t>(bytes);
  sync_[instance % shard_count()].flow = net::kInvalidFlow;
  NameNode& node = *nodes_[instance];
  if (node.state() != State::kSyncing) return;
  node.adopt_meta_from(*nodes_[peer_of(instance)]);
  node.set_state(State::kServing);
  ++stats_.resyncs_completed;
}

void MetadataPlane::resync_aborted(std::size_t instance) {
  sync_[instance % shard_count()].flow = net::kInvalidFlow;
  if (nodes_[instance]->state() == State::kSyncing)
    resync_queue_.push_back(instance);
}

// --------------------------------------------------------------------------
// statistics
// --------------------------------------------------------------------------

std::size_t MetadataPlane::contents_stored() const {
  std::size_t n = 0;
  for (std::size_t shard = 0; shard < shard_count(); ++shard)
    n += authority(shard).content_count();
  return n;
}

double MetadataPlane::mean_delay() const {
  double delay = 0;
  std::uint64_t served = 0;
  for (const auto& node : nodes_) {
    delay += node->mean_delay() * static_cast<double>(node->served());
    served += node->served();
  }
  return served > 0 ? delay / static_cast<double>(served) : 0.0;
}

}  // namespace scda::core
