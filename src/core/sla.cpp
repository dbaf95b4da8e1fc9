#include "core/sla.h"

#include "obs/observability.h"
#include "util/log.h"

namespace scda::core {

void SlaManager::on_violation(net::LinkId link, sim::BitRate demand,
                              sim::BitRate gamma, sim::Time time) {
  events_.push_back(SlaEvent{time, link, demand, gamma});
  last_violation_[link] = time;

  if (boost_threshold_ == 0 || boosted_.count(link)) return;
  if (++consecutive_[link] >= boost_threshold_) {
    net::Link& l = net_.link(link);
    l.set_capacity(l.capacity() * boost_factor_);
    boosted_.insert(link);
    ++boosts_applied_;
    if (obs::TraceRecorder* tr = obs::tracer_of(net_.sim())) {
      tr->instant(time, "control", "sla_capacity_boost", obs::kTrackControl,
                  {{"link", static_cast<double>(link.value())},
                   {"boost_factor", boost_factor_},
                   {"capacity_bps", l.capacity_bps()}});
    }
    SCDA_LOG_INFO("sla: boosted link %d capacity x%.2f at t=%.3f",
                  link.value(), boost_factor_, time.seconds());
  }
}

}  // namespace scda::core
