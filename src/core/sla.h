// SLA violation bookkeeping and mitigation (paper section IV-A).
//
// The RateAllocator detects violations (S > alpha*C - beta*Q/tau) in
// realtime; this manager records them, keeps a per-link recency view used
// to steer new requests away from violating subtrees, and can trigger the
// "add more resources" mitigation by activating reserve capacity on a link.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/network.h"

namespace scda::core {

struct SlaEvent {
  sim::Time time{};
  net::LinkId link = net::kInvalidLink;
  sim::BitRate demand{};    ///< S at detection
  sim::BitRate capacity{};  ///< effective capacity gamma at detection
};

class SlaManager {
 public:
  explicit SlaManager(net::Network& net) : net_(net) {}

  /// How long (seconds) a link stays on the avoid list after a violation.
  void set_cooldown(double s) noexcept { cooldown_s_ = s; }

  /// Reserve-capacity mitigation: after `threshold` consecutive violations
  /// on a link, its capacity is scaled by `boost` once (models switching in
  /// a backup/recovery link, section IV-A). 0 disables.
  void enable_capacity_boost(std::uint32_t threshold, double boost) {
    boost_threshold_ = threshold;
    boost_factor_ = boost;
  }

  void on_violation(net::LinkId link, sim::BitRate demand, sim::BitRate gamma,
                    sim::Time time);

  /// True when the link violated its SLA within the cooldown window —
  /// the NNS avoids servers behind such links when placing new content.
  [[nodiscard]] bool recently_violated(net::LinkId link,
                                       sim::Time now) const {
    const auto it = last_violation_.find(link);
    return it != last_violation_.end() &&
           now - it->second < sim::secs(cooldown_s_);
  }

  [[nodiscard]] const std::vector<SlaEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::uint64_t boosts_applied() const noexcept {
    return boosts_applied_;
  }

 private:
  net::Network& net_;
  double cooldown_s_ = 1.0;
  std::uint32_t boost_threshold_ = 0;
  double boost_factor_ = 1.0;
  std::vector<SlaEvent> events_;
  std::unordered_map<net::LinkId, sim::Time> last_violation_;
  std::unordered_map<net::LinkId, std::uint32_t> consecutive_;
  std::unordered_set<net::LinkId> boosted_;
  std::uint64_t boosts_applied_ = 0;
};

}  // namespace scda::core
