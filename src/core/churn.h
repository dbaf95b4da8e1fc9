// ChurnInjector: drives a pre-built FailureSchedule through the Cloud.
//
// The schedule (sim/failure_schedule.h) is a pure function of (config,
// topology shape, run seed), computed once at construction, after the
// config passes validate_churn() against the Cloud's census (a non-finite
// value or an out-of-range index throws std::invalid_argument). The
// injector posts each transition through the simulator and translates it
// into the Cloud's failure API:
//
//   server down/up -> Cloud::fail_server / recover_server
//   link   down/up -> Cloud::set_link_up on the ToR's duplex trunk pair
//   nns    down/up -> Cloud::fail_nns / recover_nns (metadata plane)
//
// Scripted and stochastic outages can overlap (a pod kill while a renewal
// process already has a server down). Per-entity down *counts* resolve
// that: only the 0 -> 1 edge fails the entity and only the 1 -> 0 edge
// recovers it, so nested outages never double-fail or early-recover.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/failure_schedule.h"

namespace scda::core {

class Cloud;

/// Injection counters, exported under churn_* metrics when churn is on.
struct ChurnInjectorStats {
  std::uint64_t scheduled = 0;  ///< schedule size (events posted up-front)
  std::uint64_t server_downs = 0;
  std::uint64_t server_ups = 0;
  std::uint64_t link_downs = 0;
  std::uint64_t link_ups = 0;
  std::uint64_t nns_downs = 0;
  std::uint64_t nns_ups = 0;
};

class ChurnInjector {
 public:
  ChurnInjector(Cloud& cloud, const sim::ChurnConfig& cfg);

  [[nodiscard]] const std::vector<sim::FailureEvent>& schedule()
      const noexcept {
    return schedule_;
  }
  [[nodiscard]] const ChurnInjectorStats& stats() const noexcept {
    return stats_;
  }

 private:
  void apply(const sim::FailureEvent& ev);

  Cloud& cloud_;
  std::vector<sim::FailureEvent> schedule_;
  std::vector<std::int32_t> server_down_count_;
  std::vector<std::int32_t> link_down_count_;
  std::vector<std::int32_t> nns_down_count_;
  ChurnInjectorStats stats_;
};

}  // namespace scda::core
