// Per-server non-network resources (CPU, disk) — the R_other inputs of the
// multi-resource allocation path (paper section VI-A).
//
// Real deployments profile "what CPU/disk usage can serve what link rate";
// here each server exposes effective service rates as dimension-checked
// sim::BitRate values that may be reduced by synthetic background load.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/types.h"

namespace scda::core {

class ServerResources {
 public:
  ServerResources() = default;
  ServerResources(sim::BitRate cpu, sim::BitRate disk)
      : cpu_(cpu), disk_(disk) {}

  /// R_other: the rate the server can sustain beyond the network —
  /// min(available CPU service rate, available disk service rate).
  [[nodiscard]] sim::BitRate r_other() const noexcept {
    const sim::BitRate cpu = cpu_ * (1.0 - cpu_background_);
    const sim::BitRate disk = disk_ * (1.0 - disk_background_);
    return sim::max(sim::BitRate{}, sim::min(cpu, disk));
  }

  void set_disk(sim::BitRate v) noexcept { disk_ = v; }
  /// Fraction [0,1) of the CPU consumed by internal computation.
  void set_cpu_background(double f) noexcept {
    cpu_background_ = std::clamp(f, 0.0, 1.0);
  }
  /// Fraction [0,1) of disk bandwidth consumed by background tasks.
  void set_disk_background(double f) noexcept {
    disk_background_ = std::clamp(f, 0.0, 1.0);
  }

  [[nodiscard]] sim::BitRate cpu() const noexcept { return cpu_; }
  [[nodiscard]] sim::BitRate disk() const noexcept { return disk_; }

  // --- storage accounting ---------------------------------------------------
  [[nodiscard]] std::int64_t capacity_bytes() const noexcept {
    return capacity_bytes_;
  }
  [[nodiscard]] std::int64_t used_bytes() const noexcept { return used_bytes_; }
  [[nodiscard]] std::int64_t free_bytes() const noexcept {
    return capacity_bytes_ - used_bytes_;
  }
  void set_capacity_bytes(std::int64_t b) noexcept { capacity_bytes_ = b; }
  /// Returns false when the server lacks space.
  [[nodiscard]] bool reserve_bytes(std::int64_t b) noexcept {
    if (used_bytes_ + b > capacity_bytes_) return false;
    used_bytes_ += b;
    return true;
  }
  void release_bytes(std::int64_t b) noexcept {
    used_bytes_ = std::max<std::int64_t>(0, used_bytes_ - b);
  }

 private:
  // Defaults: a 10G-capable server backed by ~6.4 Gbps of disk bandwidth,
  // far above the figure-6 link rates so the network is the bottleneck
  // unless an experiment injects background load.
  sim::BitRate cpu_{10e9};
  sim::BitRate disk_{6.4e9};
  double cpu_background_ = 0.0;
  double disk_background_ = 0.0;
  std::int64_t capacity_bytes_ = std::int64_t{4} * 1000 * 1000 * 1000 * 1000;
  std::int64_t used_bytes_ = 0;
};

}  // namespace scda::core
