// Name node server (NNS): content metadata plus a request-service queue.
//
// Each NNS keeps, per content id, the block locations and access statistics.
// Metadata requests are served sequentially with a fixed service time; with
// a single NNS (the GFS/HDFS design the paper criticizes) the queue grows
// under load and every request pays the queueing delay — the effect the
// multi-NNS + FES design removes (paper sections I and III).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/block_server.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "transport/flow.h"

namespace scda::core {

struct ContentMeta {
  ContentId id = kInvalidContent;
  std::int64_t size_bytes = 0;
  transport::ContentClass content_class =
      transport::ContentClass::kSemiInteractive;
  /// Server indices holding a full copy, primary first.
  std::vector<std::int32_t> replicas;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  sim::Time last_access_time{};
};

class NameNode {
 public:
  NameNode(sim::Simulator& sim, std::int32_t index, double service_time_s)
      : sim_(sim), index_(index), service_time_s_(service_time_s) {}

  NameNode(const NameNode&) = delete;
  NameNode& operator=(const NameNode&) = delete;

  /// Liveness of one NNS instance (metadata-plane churn,
  /// docs/scenarios.md): serving requests, up but pulling its peer's map
  /// before it rejoins, or down.
  enum class State : std::uint8_t { kServing, kSyncing, kDown };

  /// Enqueue a metadata request; `handler` runs after the queueing +
  /// service delay. Returns the delay the request will experience, or a
  /// negative value when the node is not serving (the request is dropped —
  /// the client-side timeout in MetadataPlane recovers it). Requests queued
  /// when the node crashes die with it: the crash bumps the generation and
  /// stale handlers become no-ops when their service event fires.
  double submit(std::function<void()> handler) {
    if (!alive()) return -1.0;
    const sim::Time now = sim_.now();
    const sim::Time start = std::max(now, busy_until_);
    busy_until_ = start + sim::secs(service_time_s_);
    const sim::Time delay = busy_until_ - now;
    max_delay_ = std::max(max_delay_, delay.seconds());
    total_delay_ += delay.seconds();
    ++served_;
    sim_.post_in(delay, [this, gen = generation_,
                         h = std::move(handler)] {
      if (gen == generation_) h();
    });
    return delay.seconds();
  }

  // --- liveness (metadata-plane churn, docs/scenarios.md) --------------------
  [[nodiscard]] State state() const noexcept { return state_; }
  /// Serving: the only state in which submit() accepts requests.
  [[nodiscard]] bool alive() const noexcept {
    return state_ == State::kServing;
  }
  void set_state(State state) {
    if (state == State::kDown && state_ != State::kDown) {
      // The machine died: everything sitting in its service queue is lost
      // (clients recover via timeout + retry) and the queue drains empty,
      // so a recovered node starts idle instead of paying ghost backlog.
      ++generation_;
      busy_until_ = sim::Time{};
    }
    state_ = state;
  }

  // --- metadata --------------------------------------------------------------
  [[nodiscard]] ContentMeta& upsert(ContentId id) {
    auto& m = meta_[id];
    m.id = id;
    return m;
  }
  [[nodiscard]] ContentMeta* find(ContentId id) {
    const auto it = meta_.find(id);
    return it == meta_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const ContentMeta* find(ContentId id) const {
    const auto it = meta_.find(id);
    return it == meta_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::size_t content_count() const noexcept {
    return meta_.size();
  }
  /// Snapshot of all content ids this NNS tracks, sorted — the ids feed
  /// migration/rebalance scans, so handing out unordered_map iteration
  /// order would be a latent determinism bug under the byte-identical
  /// output contract.
  [[nodiscard]] std::vector<ContentId> content_ids() const {
    std::vector<ContentId> out;
    out.reserve(meta_.size());
    for (const auto& [id, m] : meta_) out.push_back(id);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Apply a mirrored metadata record (primary->standby consistency
  /// traffic): the copy that was put on the wire replaces whatever this
  /// node had for that id.
  void apply_mirror(const ContentMeta& m) { meta_[m.id] = m; }
  /// Bulk re-sync on recovery: adopt the peer's entire metadata map (the
  /// background sync flow carried it; docs/scenarios.md).
  void adopt_meta_from(const NameNode& peer) { meta_ = peer.meta_; }

  // --- service-queue statistics ----------------------------------------------
  [[nodiscard]] std::int32_t index() const noexcept { return index_; }
  [[nodiscard]] std::uint64_t served() const noexcept { return served_; }
  [[nodiscard]] double mean_delay() const noexcept {
    return served_ ? total_delay_ / static_cast<double>(served_) : 0.0;
  }
  [[nodiscard]] double max_delay() const noexcept { return max_delay_; }

 private:
  sim::Simulator& sim_;
  std::int32_t index_;
  double service_time_s_;
  sim::Time busy_until_{};
  State state_ = State::kServing;
  std::uint64_t generation_ = 0;
  std::uint64_t served_ = 0;
  double total_delay_ = 0;
  double max_delay_ = 0;
  std::unordered_map<ContentId, ContentMeta> meta_;
};

/// Front-end server (FES): stateless hash dispatch of requests onto the
/// name nodes — `hash(key) mod N_NNS` (paper section VIII-A, step 2).
class FrontEnd {
 public:
  explicit FrontEnd(std::vector<NameNode*> nodes)
      : nodes_(std::move(nodes)) {}

  [[nodiscard]] NameNode& dispatch_by_content(ContentId content) {
    return *nodes_[dispatch_index(static_cast<std::uint64_t>(content))];
  }
  /// Shard index a key hashes to — the failover-aware paths in
  /// MetadataPlane need the index (to consult liveness and pick primary vs
  /// standby), not the node reference. Same hash as dispatch_by_content,
  /// so the mapping is stable across runs and worker counts.
  [[nodiscard]] std::size_t dispatch_index(std::uint64_t key) const {
    return sim::splitmix64(key) % nodes_.size();
  }
  [[nodiscard]] std::size_t nns_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] NameNode& node(std::size_t i) { return *nodes_.at(i); }

 private:
  std::vector<NameNode*> nodes_;
};

}  // namespace scda::core
