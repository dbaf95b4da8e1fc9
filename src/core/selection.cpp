#include "core/selection.h"

#include <algorithm>

namespace scda::core {

using transport::ContentClass;

bool ServerSelector::admit(std::size_t s) const {
  const BlockServer& bs = servers_[s];
  if (bs.failed() || bs.resources().free_bytes() <= 0) return false;
  if (policy_ != PlacementPolicy::kScda) return true;
  const sim::Time now = sim_.now();
  return !sla_.recently_violated(hier_.tree().server_uplink(s), now) &&
         !sla_.recently_violated(hier_.tree().server_downlink(s), now);
}

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

template <typename Ok>
std::int32_t ServerSelector::pick(SelectionMetric m, const Ok& ok) const {
  std::int32_t best = -1;
  sim::BitRate best_v{};
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    const sim::BitRate up = hier_.server_value_up(s);
    const sim::BitRate down = hier_.server_value_down(s);
    sim::BitRate v = m == SelectionMetric::kDown ? down
                     : m == SelectionMetric::kUp ? up
                                                 : sim::min(up, down);
    // Rank by rate-to-power ratio (section VII-D): bps per watt, kept in
    // rate space, of which only the ordering counts.
    if (params_.power_aware)
      v = v / std::max(servers_[s].power().average_w(), 1.0);
    // Only a server that would beat the best so far needs `ok`, so the
    // admission rule's SLA lookups run for few servers.
    if (v > best_v && ok(s)) {
      best_v = v;
      best = static_cast<std::int32_t>(s);
    }
  }
  return best;
}

std::int32_t ServerSelector::select_write_target(ContentClass content_class) {
  if (policy_ == PlacementPolicy::kRandom) return random_server({});

  // Interaction rate is limited by min(uplink, downlink) (VII-A). The
  // other classes first go where data can be *written to* fastest (VII-B,
  // VII-C): passive content lands on an active server first and is
  // replicated/moved to a dormant one afterwards.
  const SelectionMetric m = content_class == ContentClass::kInteractive
                                ? SelectionMetric::kMinUpDown
                                : SelectionMetric::kDown;
  std::int32_t best =
      pick(m, [this](std::size_t s) { return admit_active(s); });
  // Fallback 1: drop the R_scale restriction but still prefer awake
  // servers (keeps dormant machines asleep whenever possible).
  if (best < 0)
    best = pick(m, [this](std::size_t s) {
      return admit(s) && !servers_[s].dormant();
    });
  // Fallback 2: wake a dormant server rather than reject the write.
  if (best < 0) best = pick(m, [this](std::size_t s) { return admit(s); });
  return best;
}

std::int32_t ServerSelector::random_server(
    const std::vector<std::int32_t>& exclude) {
  const auto n = static_cast<std::int64_t>(servers_.size());
  if (n == 0) return -1;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto s = static_cast<std::int32_t>(sim_.rng().uniform_int(0, n - 1));
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
    const std::int32_t b = pick(SelectionMetric::kUp, [&](std::size_t s) {
      return not_excluded(s) && admit(s) &&
             hier_.rm_rhat_up(s) > params_.rscale;
    });
    if (b >= 0) return b;
    // else fall through to the generic best-uplink choice
  }

  // Replica server is where *reads* will come from: best uplink (VII-B).
  const std::int32_t b = pick(SelectionMetric::kUp, [&](std::size_t s) {
    return not_excluded(s) && admit_active(s);
  });
  if (b >= 0) return b;
  return pick(SelectionMetric::kUp,
              [&](std::size_t s) { return not_excluded(s) && admit(s); });
}

std::int32_t ServerSelector::select_read_replica(
    const std::vector<std::int32_t>& replicas) {
  if (replicas.empty()) return -1;
  if (policy_ == PlacementPolicy::kRandom) {
    std::vector<std::int32_t> alive;
    for (const std::int32_t s : replicas)
      if (!servers_[static_cast<std::size_t>(s)].failed()) alive.push_back(s);
    if (alive.empty()) return -1;
    return alive[static_cast<std::size_t>(sim_.rng().uniform_int(
        0, static_cast<std::int64_t>(alive.size()) - 1))];
  }
  // Its own loop, not pick(): replicas are ranked in list order from
  // below 0, so the first listed wins a tie, even at a rate of 0.
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
