// Block server (BS): stores content blocks, hosts a resource monitor, and
// carries the server-local resource and power models (paper section III-A).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/power.h"
#include "core/server_resources.h"
#include "net/packet.h"

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
  /// Store (or grow) a content block. Returns false if disk space is
  /// exhausted; the NNS then picks a different server.
  [[nodiscard]] bool store(ContentId id, std::int64_t bytes) {
    if (!resources_.reserve_bytes(bytes)) return false;
    blocks_[id] += bytes;
    stored_total_ += bytes;
    return true;
  }
  void remove(ContentId id) {
    const auto it = blocks_.find(id);
    if (it == blocks_.end()) return;
    resources_.release_bytes(it->second);
    stored_total_ -= it->second;
    blocks_.erase(it);
  }
  /// Wipe every stored block (server recovery after a failure,
  /// docs/scenarios.md): the machine comes back empty and refills through
  /// normal placement, so stale blocks never leak disk across churn cycles.
  void scrub() {
    resources_.release_bytes(stored_total_);
    stored_total_ = 0;
    blocks_.clear();
  }
  [[nodiscard]] bool has(ContentId id) const { return blocks_.count(id) != 0; }
  [[nodiscard]] std::int64_t stored_bytes(ContentId id) const {
    const auto it = blocks_.find(id);
    return it == blocks_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::size_t block_count() const noexcept {
    return blocks_.size();
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
  /// recovery. The RM/RA hierarchy sees its R_other as zero, so selection
  /// never routes new work to it.
  void set_failed(bool f) noexcept { failed_ = f; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }

 private:
  std::size_t index_;
  net::NodeId node_;
  ServerResources resources_;
  PowerModel power_;
  std::unordered_map<ContentId, std::int64_t> blocks_;
  std::int64_t stored_total_ = 0;  ///< sum over blocks_ (scrub in O(1))
  std::int32_t active_flows_ = 0;
  bool failed_ = false;
};

}  // namespace scda::core
