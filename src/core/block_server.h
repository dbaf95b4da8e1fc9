// Block server (BS): stores content blocks, hosts a resource monitor, and
// carries the server-local resource and power models (paper section III-A).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "core/power.h"
#include "core/server_resources.h"
#include "net/packet.h"
#include "transport/flow.h"

namespace scda::core {

using ContentId = std::int64_t;
constexpr ContentId kInvalidContent = -1;

class BlockServer {
 public:
  BlockServer(std::size_t index, net::NodeId node)
      : index_(index), node_(node) {}

  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }

  [[nodiscard]] ServerResources& resources() noexcept { return resources_; }
  [[nodiscard]] const ServerResources& resources() const noexcept {
    return resources_;
  }
  [[nodiscard]] PowerModel& power() noexcept { return power_; }
  [[nodiscard]] const PowerModel& power() const noexcept { return power_; }

  // --- block storage ---------------------------------------------------------
  /// Store (or grow) a content block; a grown block keeps the class its
  /// copy was placed with. Returns false if disk space is exhausted; the
  /// NNS then picks a different server.
  [[nodiscard]] bool store(ContentId id, std::int64_t bytes) {
    if (!resources_.reserve_bytes(bytes)) return false;
    blocks_[id].bytes += bytes;
    stored_total_ += bytes;
    return true;
  }
  /// Store a new copy of content of class `cls`: a write's, a replica's or
  /// a move's target. A copy of active (non-passive) content keeps the
  /// server out of dormancy and wakes it; a passive copy lands without
  /// waking it (section VII-C). False when the disk is full, or when the
  /// server already holds a copy of `id`: one server, one copy.
  [[nodiscard]] bool place(ContentId id, std::int64_t bytes,
                           transport::ContentClass cls) {
    if (has(id) || !store(id, bytes)) return false;
    if (cls != transport::ContentClass::kPassive) {
      if (!std::exchange(blocks_[id].active, true)) ++active_copies_;
      set_dormant(false);
    }
    return true;
  }
  /// Drop a copy (a vacated move source, or the target of a transfer that
  /// never finished); an active one stops counting. No-op when not held.
  void remove(ContentId id) {
    const auto it = blocks_.find(id);
    if (it == blocks_.end()) return;
    resources_.release_bytes(it->second.bytes);
    stored_total_ -= it->second.bytes;
    if (it->second.active) --active_copies_;
    blocks_.erase(it);
  }
  /// The content of a held copy turned passive (a migration landed): the
  /// copy no longer keeps the server awake. No-op when not held.
  void mark_passive(ContentId id) {
    const auto it = blocks_.find(id);
    if (it != blocks_.end() && std::exchange(it->second.active, false))
      --active_copies_;
  }
  /// Wipe every stored block (server recovery after a failure,
  /// docs/scenarios.md): the machine comes back empty and refills through
  /// normal placement, so stale blocks never leak disk across churn cycles.
  void scrub() {
    resources_.release_bytes(stored_total_);
    stored_total_ = 0;
    blocks_.clear();
    active_copies_ = 0;
  }
  [[nodiscard]] bool has(ContentId id) const { return blocks_.count(id) != 0; }
  [[nodiscard]] std::int64_t stored_bytes(ContentId id) const {
    const auto it = blocks_.find(id);
    return it == blocks_.end() ? 0 : it->second.bytes;
  }
  [[nodiscard]] std::size_t block_count() const noexcept {
    return blocks_.size();
  }
  /// Copies of active content placed here: a server holding one is never
  /// scaled down.
  [[nodiscard]] std::int32_t active_copies() const noexcept {
    return active_copies_;
  }

  // --- activity tracking (dormancy policy) -----------------------------------
  void flow_started() noexcept { ++active_flows_; }
  void flow_finished() noexcept {
    if (active_flows_ > 0) --active_flows_;
  }
  [[nodiscard]] std::int32_t active_flows() const noexcept {
    return active_flows_;
  }

  [[nodiscard]] bool dormant() const noexcept { return power_.dormant(); }
  void set_dormant(bool d) noexcept { power_.set_dormant(d); }

  // --- failure state (RM health monitoring, section I/III) -------------------
  /// A failed server serves nothing; its blocks are unavailable until
  /// recovery. ServerSelector admits no failed server, and
  /// Hierarchy::update() reads its R_other as zero, so a recovered server
  /// takes new work only after the next update.
  void set_failed(bool f) noexcept { failed_ = f; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }

 private:
  struct Block {
    std::int64_t bytes = 0;
    bool active = false;  ///< placed as a copy of active content
  };
  std::size_t index_;
  net::NodeId node_;
  ServerResources resources_;
  PowerModel power_;
  std::unordered_map<ContentId, Block> blocks_;
  std::int64_t stored_total_ = 0;  ///< sum over blocks_ (scrub in O(1))
  std::int32_t active_copies_ = 0;
  std::int32_t active_flows_ = 0;
  bool failed_ = false;
};

}  // namespace scda::core
