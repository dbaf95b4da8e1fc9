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
// directions (what the top RA ranks servers by). Ongoing flows are re-rated
// from RateAllocator::flow_rate, not from this table.
//
// The per-link rates themselves come from the RateAllocator; this class is
// the tree-structured aggregation that the paper distributes across RM/RA
// message exchanges. All values are dimension-checked sim::BitRate.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/rate_allocator.h"
#include "net/topology.h"

namespace scda::core {

/// hmax for the three-tier topology (paper: "for such three tier topology,
/// hmax = 3"; block servers are level 0).
constexpr int kMaxLevel = 3;

/// Ranking metric for server selection (paper section VII).
enum class SelectionMetric : std::uint8_t {
  kDown,       ///< best downlink rate (fast writes)
  kUp,         ///< best uplink rate (fast reads)
  kMinUpDown,  ///< best min(up, down) (interactive content)
};

struct BestServer {
  std::int32_t server = -1;  ///< server index in the topology (not NodeId)
  /// Ranking value. A plain best_server query reports the winning R-hat;
  /// a reweighted query (power-aware bps-per-watt) reports the reweighted
  /// score, which only the ordering of matters.
  sim::BitRate value{};
};

struct SlaLevelReport {
  /// violations attributed to RMs (level 0) and RAs (levels 1..3),
  /// summed over both directions.
  std::uint64_t per_level[kMaxLevel + 1] = {0, 0, 0, 0};
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (const auto v : per_level) t += v;
    return t;
  }
};

class Hierarchy {
 public:
  Hierarchy(net::ThreeTierTree& topo, RateAllocator& alloc);

  /// Per-server R_other provider (CPU/disk constraint at the RM,
  /// section VI-A); nullptr means link-bandwidth-only allocation.
  void set_r_other_provider(std::function<sim::BitRate(std::size_t)> fn) {
    r_other_ = std::move(fn);
  }

  /// Recompute every R-hat from the allocator's current per-link rates.
  /// Call once per control interval, after RateAllocator::tick().
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

  /// Best block server across the whole datacenter by R-hat^hmax (the
  /// answer the top RA gives the NNS), among the servers `admit` accepts.
  /// `reweight` maps (server, R-hat) to the ranking score; the power-aware
  /// policy divides by watts, so the score is bps-per-watt reinterpreted in
  /// rate space — only its ordering is consumed.
  [[nodiscard]] BestServer best_server(
      SelectionMetric m,
      const std::function<bool(std::size_t)>& admit = nullptr,
      const std::function<sim::BitRate(std::size_t, sim::BitRate)>& reweight =
          nullptr) const;

  /// SLA violations attributed to each level of the RM/RA tree.
  [[nodiscard]] SlaLevelReport sla_report() const;

  [[nodiscard]] std::size_t server_count() const noexcept {
    return up_.size();
  }

 private:
  net::ThreeTierTree& topo_;
  RateAllocator& alloc_;
  std::function<sim::BitRate(std::size_t)> r_other_;

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
