#include "core/selection.h"

#include <algorithm>

namespace scda::core {

using transport::ContentClass;

bool ServerSelector::admit_active(std::size_t s) const {
  if (!admit(s)) return false;
  if (servers_[s].dormant()) return false;
  if (params_.rscale > sim::BitRate{} &&
      hier_.rm_rhat_up(s) > params_.rscale) {
    // Least-loaded servers (uplink allocation above R_scale) are kept for
    // passive content so they can stay dormant (section VII-C).
    return false;
  }
  return true;
}

BestServer ServerSelector::pick(
    SelectionMetric m, const std::function<bool(std::size_t)>& ok) const {
  if (params_.power_aware) {
    // Rank by rate-to-power ratio (section VII-D); the reweight keeps the
    // returned value in bps-per-watt space, which only affects ordering.
    return hier_.best_server(m, ok, [this](std::size_t s, sim::BitRate v) {
      return v / std::max(servers_[s].power().average_w(), 1.0);
    });
  }
  return hier_.best_server(m, ok);
}

std::int32_t ServerSelector::select_write_target(ContentClass content_class) {
  if (policy_ == PlacementPolicy::kRandom) return random_server({});

  const auto active_ok = [this](std::size_t s) { return admit_active(s); };
  const auto any_ok = [this](std::size_t s) { return admit(s); };

  BestServer best;
  switch (content_class) {
    case ContentClass::kInteractive:
      // Interaction rate is limited by min(uplink, downlink) (VII-A).
      best = pick(SelectionMetric::kMinUpDown, active_ok);
      break;
    case ContentClass::kSemiInteractive:
    case ContentClass::kPassive:
      // First stage for both: the server data can be *written to* fastest
      // (VII-B, VII-C). Passive content lands on an active server first and
      // is replicated/moved to a dormant one afterwards.
      best = pick(SelectionMetric::kDown, active_ok);
      break;
  }
  if (best.server < 0) {
    // Fallback 1: drop the R_scale restriction but still prefer awake
    // servers (keeps dormant machines asleep whenever possible).
    const auto awake_ok = [this](std::size_t s) {
      return admit(s) && !servers_[s].dormant();
    };
    const SelectionMetric m = content_class == ContentClass::kInteractive
                                  ? SelectionMetric::kMinUpDown
                                  : SelectionMetric::kDown;
    best = pick(m, awake_ok);
    // Fallback 2: wake a dormant server rather than reject the write.
    if (best.server < 0) best = pick(m, any_ok);
  }
  return best.server;
}

std::int32_t ServerSelector::random_server(
    const std::vector<std::int32_t>& exclude) {
  const auto n = static_cast<std::int64_t>(servers_.size());
  if (n == 0) return -1;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto s = static_cast<std::int32_t>(rng_.uniform_int(0, n - 1));
    if (std::find(exclude.begin(), exclude.end(), s) == exclude.end() &&
        admit(static_cast<std::size_t>(s)))
      return s;
  }
  return -1;
}

std::int32_t ServerSelector::select_replica_target(
    ContentClass content_class, const std::vector<std::int32_t>& exclude) {
  if (policy_ == PlacementPolicy::kRandom) return random_server(exclude);

  const auto not_excluded = [&exclude](std::size_t s) {
    return std::find(exclude.begin(), exclude.end(),
                     static_cast<std::int32_t>(s)) == exclude.end();
  };

  if (content_class == ContentClass::kPassive &&
      params_.rscale > sim::BitRate{}) {
    // Replicate passive data to a dormant-eligible server: uplink
    // allocation above R_scale, i.e. a nearly idle machine (VII-C).
    const auto dormant_ok = [&](std::size_t s) {
      return not_excluded(s) && admit(s) &&
             hier_.rm_rhat_up(s) > params_.rscale;
    };
    const BestServer b = pick(SelectionMetric::kUp, dormant_ok);
    if (b.server >= 0) return b.server;
    // else fall through to the generic best-uplink choice
  }

  const auto active_ok = [&](std::size_t s) {
    return not_excluded(s) && admit_active(s);
  };
  // Replica server is where *reads* will come from: best uplink (VII-B).
  BestServer b = pick(SelectionMetric::kUp, active_ok);
  if (b.server < 0) {
    const auto any_ok = [&](std::size_t s) {
      return not_excluded(s) && admit(s);
    };
    b = pick(SelectionMetric::kUp, any_ok);
  }
  return b.server;
}

std::int32_t ServerSelector::select_read_replica(
    const std::vector<std::int32_t>& replicas) {
  if (replicas.empty()) return -1;
  if (policy_ == PlacementPolicy::kRandom) {
    std::vector<std::int32_t> alive;
    for (const std::int32_t s : replicas)
      if (!servers_[static_cast<std::size_t>(s)].failed()) alive.push_back(s);
    if (alive.empty()) return -1;
    return alive[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(alive.size()) - 1))];
  }
  std::int32_t best = -1;
  sim::BitRate best_v{-1};
  for (const std::int32_t s : replicas) {
    if (servers_[static_cast<std::size_t>(s)].failed()) continue;
    const sim::BitRate v = hier_.server_value_up(static_cast<std::size_t>(s));
    if (v > best_v) {
      best_v = v;
      best = s;
    }
  }
  return best;  // -1 when every replica is on a failed server
}

}  // namespace scda::core
