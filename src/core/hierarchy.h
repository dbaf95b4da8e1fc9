// The RM/RA hierarchy over the three-tier tree (paper sections III and VI,
// figure 2).
//
// Each block server has a resource monitor (RM) watching its access links;
// each switch level has a resource allocator (RA). Every control interval
// the hierarchy aggregates bottom-up:
//
//   R-hat^0    = min(access link rate, R_other)          (at each RM)
//   R-hat^h    = min(R-hat^{h-1}, level-h link rate)     (up to h = hmax)
//
// The NNS reads three of those values per server: R-hat^0 on the uplink
// (checked against R_scale by the dormant policy) and R-hat^hmax in both
// directions (what the top RA ranks servers by, in ServerSelector). Ongoing
// flows are re-rated from RateAllocator::flow_rate, not from this table.
//
// The per-link rates themselves come from the RateAllocator and R_other
// from each server's BlockServer; this class is the tree-structured
// aggregation that the paper distributes across RM/RA message exchanges.
// All values are dimension-checked sim::BitRate.
#pragma once

#include <vector>

#include "core/block_server.h"
#include "core/rate_allocator.h"
#include "net/topology.h"

namespace scda::core {

class Hierarchy {
 public:
  /// `servers` holds one BlockServer per server of `topo`, in index order,
  /// by the first update().
  Hierarchy(const net::ThreeTierTree& topo, const RateAllocator& alloc,
            const std::vector<BlockServer>& servers);

  /// Recompute every R-hat from the allocator's current per-link rates and
  /// each server's R_other (CPU/disk constraint at the RM, section VI-A).
  /// A failed server's R_other reads 0 until the next update() after its
  /// recovery. Call once per control interval, after RateAllocator::tick().
  void update();

  /// R-hat^0 at the RM of server `s`: min(access uplink rate, R_other).
  [[nodiscard]] sim::BitRate rm_rhat_up(std::size_t s) const {
    return rhat0_up_.at(s);
  }
  /// R-hat^hmax of server `s`: the min of its R-hat^0 and every link rate
  /// on its path to the gateway (uplink = data read out of the server).
  [[nodiscard]] sim::BitRate server_value_up(std::size_t s) const {
    return up_.at(s);
  }
  [[nodiscard]] sim::BitRate server_value_down(std::size_t s) const {
    return down_.at(s);
  }

  [[nodiscard]] std::size_t server_count() const noexcept {
    return up_.size();
  }
  [[nodiscard]] const net::ThreeTierTree& tree() const noexcept {
    return topo_;
  }

 private:
  const net::ThreeTierTree& topo_;
  const RateAllocator& alloc_;
  const std::vector<BlockServer>& servers_;

  std::vector<sim::BitRate> rhat0_up_;
  std::vector<sim::BitRate> up_;
  std::vector<sim::BitRate> down_;
  // Per-ToR min of the link rates from the ToR to the gateway, recomputed
  // each update(); every server under one ToR shares those links.
  struct TorMin {
    sim::BitRate up, down;
  };
  std::vector<TorMin> tor_min_;
};

}  // namespace scda::core
