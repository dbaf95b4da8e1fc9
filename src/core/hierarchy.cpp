#include "core/hierarchy.h"

namespace scda::core {

Hierarchy::Hierarchy(const net::ThreeTierTree& topo,
                     const RateAllocator& alloc,
                     const std::vector<BlockServer>& servers)
    : topo_(topo), alloc_(alloc), servers_(servers) {
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
    // A failed server offers no service rate at all (RM health signal).
    const BlockServer& bs = servers_.at(s);
    const sim::BitRate other =
        bs.failed() ? sim::BitRate{} : bs.resources().r_other();
    rhat0_up_[s] = sim::min(alloc_.link_rate(topo_.server_uplink(s)), other);
    up_[s] = sim::min(rhat0_up_[s], tor.up);
    down_[s] = sim::min(
        sim::min(alloc_.link_rate(topo_.server_downlink(s)), other), tor.down);
  }
}

}  // namespace scda::core
