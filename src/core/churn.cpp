#include "core/churn.h"

#include "core/cloud.h"

namespace scda::core {

ChurnInjector::ChurnInjector(Cloud& cloud, const sim::ChurnConfig& cfg)
    : cloud_(cloud) {
  const net::TopologyConfig& topo = cloud_.topology().config();
  sim::ChurnShape shape;
  shape.n_servers = topo.n_servers();
  shape.n_links = topo.n_tors();
  shape.servers_per_pod = topo.tors_per_agg * topo.servers_per_tor;
  shape.n_nns = static_cast<std::int32_t>(cloud_.nns_instance_count());
  sim::validate_churn(cfg, shape);

  schedule_ = sim::build_failure_schedule(cfg, shape, cloud_.sim().seed());
  stats_.scheduled = schedule_.size();
  server_down_count_.assign(static_cast<std::size_t>(shape.n_servers), 0);
  link_down_count_.assign(static_cast<std::size_t>(shape.n_links), 0);
  nns_down_count_.assign(static_cast<std::size_t>(shape.n_nns), 0);

  for (const sim::FailureEvent& ev : schedule_)
    cloud_.sim().post_at(ev.at, [this, ev] { apply(ev); });
}

void ChurnInjector::apply(const sim::FailureEvent& ev) {
  const auto idx = static_cast<std::size_t>(ev.index);
  switch (ev.kind) {
    case sim::FailureKind::kServerDown:
      if (++server_down_count_.at(idx) == 1) {
        ++stats_.server_downs;
        cloud_.fail_server(idx);
      }
      break;
    case sim::FailureKind::kServerUp:
      if (--server_down_count_.at(idx) == 0) {
        ++stats_.server_ups;
        cloud_.recover_server(idx);
      }
      break;
    case sim::FailureKind::kLinkDown:
      if (++link_down_count_.at(idx) == 1) {
        ++stats_.link_downs;
        net::ThreeTierTree& topo = cloud_.topology();
        cloud_.set_link_up(topo.tor_uplink(idx), false, /*propagate=*/false);
        cloud_.set_link_up(topo.tor_downlink(idx), false, /*propagate=*/true);
      }
      break;
    case sim::FailureKind::kLinkUp:
      if (--link_down_count_.at(idx) == 0) {
        ++stats_.link_ups;
        net::ThreeTierTree& topo = cloud_.topology();
        cloud_.set_link_up(topo.tor_uplink(idx), true, /*propagate=*/false);
        cloud_.set_link_up(topo.tor_downlink(idx), true, /*propagate=*/true);
      }
      break;
    case sim::FailureKind::kNnsDown:
      if (++nns_down_count_.at(idx) == 1) {
        ++stats_.nns_downs;
        cloud_.fail_nns(idx);
      }
      break;
    case sim::FailureKind::kNnsUp:
      if (--nns_down_count_.at(idx) == 0) {
        ++stats_.nns_ups;
        cloud_.recover_nns(idx);
      }
      break;
  }
}

}  // namespace scda::core
