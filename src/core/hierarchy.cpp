#include "core/hierarchy.h"

#include <limits>

namespace scda::core {

Hierarchy::Hierarchy(net::ThreeTierTree& topo, RateAllocator& alloc)
    : topo_(topo), alloc_(alloc) {
  const auto n = static_cast<std::size_t>(topo_.config().n_servers());
  rhat0_up_.assign(n, sim::BitRate{});
  up_.assign(n, sim::BitRate{});
  down_.assign(n, sim::BitRate{});
  tor_min_.resize(topo_.tors().size());
}

void Hierarchy::update() {
  const sim::BitRate core_up = alloc_.link_rate(topo_.core_uplink());
  const sim::BitRate core_down = alloc_.link_rate(topo_.core_downlink());

  // All servers under one ToR share the level-1..3 links, so their min is
  // computed once per ToR instead of once per server.
  for (std::size_t t = 0; t < tor_min_.size(); ++t) {
    const std::size_t agg = topo_.agg_of_tor(t);
    tor_min_[t].up = sim::min(sim::min(alloc_.link_rate(topo_.tor_uplink(t)),
                                       alloc_.link_rate(topo_.agg_uplink(agg))),
                              core_up);
    tor_min_[t].down =
        sim::min(sim::min(alloc_.link_rate(topo_.tor_downlink(t)),
                          alloc_.link_rate(topo_.agg_downlink(agg))),
                 core_down);
  }

  for (std::size_t s = 0; s < up_.size(); ++s) {
    const TorMin& tor = tor_min_[topo_.tor_of_server(s)];
    const sim::BitRate other =
        r_other_ ? r_other_(s)
                 : sim::BitRate{std::numeric_limits<double>::infinity()};
    rhat0_up_[s] = sim::min(alloc_.link_rate(topo_.server_uplink(s)), other);
    up_[s] = sim::min(rhat0_up_[s], tor.up);
    down_[s] = sim::min(
        sim::min(alloc_.link_rate(topo_.server_downlink(s)), other), tor.down);
  }
}

BestServer Hierarchy::best_server(
    SelectionMetric m, const std::function<bool(std::size_t)>& admit,
    const std::function<sim::BitRate(std::size_t, sim::BitRate)>& reweight)
    const {
  BestServer best;
  for (std::size_t s = 0; s < up_.size(); ++s) {
    if (admit && !admit(s)) continue;
    sim::BitRate v = m == SelectionMetric::kDown ? down_[s]
                     : m == SelectionMetric::kUp ? up_[s]
                                                 : sim::min(up_[s], down_[s]);
    if (reweight) v = reweight(s, v);
    if (v > best.value) {
      best.value = v;
      best.server = static_cast<std::int32_t>(s);
    }
  }
  return best;
}

SlaLevelReport Hierarchy::sla_report() const {
  SlaLevelReport rep;
  for (std::size_t s = 0; s < up_.size(); ++s) {
    rep.per_level[0] += alloc_.sla_violations(topo_.server_uplink(s)) +
                        alloc_.sla_violations(topo_.server_downlink(s));
  }
  for (std::size_t t = 0; t < topo_.tors().size(); ++t) {
    rep.per_level[1] += alloc_.sla_violations(topo_.tor_uplink(t)) +
                        alloc_.sla_violations(topo_.tor_downlink(t));
  }
  for (std::size_t a = 0; a < topo_.aggs().size(); ++a) {
    rep.per_level[2] += alloc_.sla_violations(topo_.agg_uplink(a)) +
                        alloc_.sla_violations(topo_.agg_downlink(a));
  }
  rep.per_level[3] = alloc_.sla_violations(topo_.core_uplink()) +
                     alloc_.sla_violations(topo_.core_downlink());
  return rep;
}

}  // namespace scda::core
