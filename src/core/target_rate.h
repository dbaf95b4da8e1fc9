// Adaptive priority control (paper section IV-A).
//
//   "If the source j gets the bottleneck rate R_j(t) ... and if it wants to
//    set its rate in the next round to R_j(t+tau), it sets its priority as
//    p_j = R_j(t+tau) / R_j(t). ... This approach can adaptively and
//    implicitly implement many scheduling policies in a distributed manner
//    [e.g.] shortest file first and early deadline first."
//
// TargetRateController tracks flows with a target rate (fixed, or derived
// from a deadline: remaining bytes / remaining time) and rewrites their
// priority weight every control interval:
//
//     p_new = target / base_share,   base_share = (r_j - M_j) / p_old
//
// i.e. exactly the paper's ratio rule expressed against the flow's
// unit-weight share, clamped to keep the allocator stable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "core/rate_allocator.h"

namespace scda::core {

class TargetRateController {
 public:
  explicit TargetRateController(RateAllocator& alloc) : alloc_(alloc) {}

  /// Drive the flow towards a fixed rate.
  void set_target_rate(net::FlowId id, sim::BitRate target) {
    targets_[id] = Goal{target, -1.0};
  }

  /// Drive the flow to finish its remaining bytes by absolute `deadline_s`
  /// (EDF-style: the target rate grows as the deadline nears).
  void set_deadline(net::FlowId id, double deadline_s) {
    targets_[id] = Goal{sim::BitRate{}, deadline_s};
  }

  void clear(net::FlowId id) { targets_.erase(id); }
  [[nodiscard]] bool has_target(net::FlowId id) const {
    return targets_.count(id) != 0;
  }
  [[nodiscard]] std::size_t active() const noexcept {
    return targets_.size();
  }

  /// Recompute priorities; call once per control interval, after the
  /// allocator tick. `remaining_bytes_of` reports a flow's unsent bytes
  /// (deadline targets); `now` is the current simulation time.
  template <typename RemainingFn>
  void update(sim::Time now, RemainingFn&& remaining_bytes_of) {
    for (auto it = targets_.begin(); it != targets_.end();) {
      const net::FlowId id = it->first;
      if (!alloc_.has_flow(id)) {
        it = targets_.erase(it);
        continue;
      }
      Goal& g = it->second;

      sim::BitRate target = g.target;
      if (g.deadline_s >= 0) {
        const double remaining =
            static_cast<double>(remaining_bytes_of(id)) * 8.0;
        // Aim to finish a little early: window quantization, control
        // latency and the tick cadence all eat into the budget.
        const double time_left =
            (g.deadline_s - now.seconds()) * kDeadlineSafety;
        // Past-deadline flows push as hard as the clamp allows.
        target = sim::BitRate{time_left > 1e-3 ? remaining / time_left
                                               : remaining / 1e-3};
      }
      if (target <= sim::BitRate{}) {
        ++it;
        continue;
      }

      const double p_old = alloc_.priority(id);
      const sim::BitRate r = alloc_.flow_rate(id);
      // Unit-weight share this flow currently maps onto.
      const sim::BitRate base = p_old > 0 ? r / p_old : r;
      if (base > sim::BitRate{}) {
        // target/base is a same-unit ratio: the dimensionless priority.
        const double p_new =
            std::clamp(target / base, kMinPriority, kMaxPriority);
        alloc_.set_priority(id, p_new);
      }
      ++it;
    }
  }

  static constexpr double kMinPriority = 0.05;
  static constexpr double kMaxPriority = 64.0;
  /// Fraction of the remaining time budget deadline targets aim for
  /// (finish early rather than exactly on time).
  static constexpr double kDeadlineSafety = 0.8;

 private:
  struct Goal {
    sim::BitRate target{};   ///< fixed-rate goal (when deadline_s < 0)
    double deadline_s = -1;  ///< absolute deadline (EDF mode) or -1
  };

  RateAllocator& alloc_;
  std::unordered_map<net::FlowId, Goal> targets_;
};

}  // namespace scda::core
