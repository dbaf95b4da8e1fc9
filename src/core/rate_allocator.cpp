#include "core/rate_allocator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/rate_metric.h"
#include "obs/observability.h"
#include "util/log.h"

namespace scda::core {

RateAllocator::RateAllocator(net::Network& net, const ScdaParams& params)
    : net_(net), params_(params) {
  links_.resize(net_.link_count());
  for (std::size_t l = 0; l < links_.size(); ++l) {
    // An idle link initially offers its full effective capacity.
    const sim::BitRate c = net_.link(net::LinkId::from_index(l)).capacity();
    links_[l].rate = params_.alpha * c;
    links_[l].gamma = params_.alpha * c;
  }
}

void RateAllocator::register_flow(net::FlowId id, net::NodeId src,
                                  net::NodeId dst, double priority,
                                  sim::BitRate reserved,
                                  RateProviderFn r_other_send,
                                  RateProviderFn r_other_recv) {
  register_flow_on_path(id, net_.path(src, dst), priority, reserved,
                        std::move(r_other_send), std::move(r_other_recv));
}

void RateAllocator::register_flow_on_path(net::FlowId id,
                                          std::vector<net::LinkId> path,
                                          double priority,
                                          sim::BitRate reserved,
                                          RateProviderFn r_other_send,
                                          RateProviderFn r_other_recv) {
  const std::uint32_t s = slots_.insert(id);
  if (s == net::SlotIndex::kNone)
    throw std::logic_error("RateAllocator: flow already registered");
  if (s == priority_.size()) {
    priority_.emplace_back();
    reserved_.emplace_back();
    rate_.emplace_back();
    path_.emplace_back();
    r_other_send_.emplace_back();
    r_other_recv_.emplace_back();
  }
  priority_[s] = priority;
  reserved_[s] = reserved;
  // Reuse the recycled slot's path capacity instead of adopting the
  // caller's buffer: steady churn then allocates nothing.
  path_[s].assign(path.begin(), path.end());
  r_other_send_[s] = std::move(r_other_send);
  r_other_recv_[s] = std::move(r_other_recv);

  // Immediate feedback: each RA counts the new flow into its effective
  // flow total and lowers its advertised per-flow rate accordingly, so
  // several flows admitted within the same control interval are quoted
  // gamma/(N-hat + 1), gamma/(N-hat + 2), ... instead of all receiving the
  // full link rate. The next tick recomputes the exact values. Down links
  // keep their pinned zero rate.
  for (const net::LinkId l : path_[s]) {
    auto& st = links_[l.index()];
    st.reserved += reserved;
    st.nhat += priority;
    if (st.down) continue;
    const sim::BitRate shareable =
        sim::max(st.gamma - st.reserved, params_.min_rate);
    st.rate = sim::clamp(shareable / std::max(st.nhat, 1.0),
                         params_.min_rate, shareable);
  }
  // Seed the flow's rate with the post-admission quote so the first
  // interval's S already accounts for it (the NNS hands this same value to
  // the sender as the initial allocation).
  rate_[s] = reserved + priority * path_rate(path_[s]);
}

void RateAllocator::unregister_flow(net::FlowId id) {
  const std::uint32_t s = slots_.erase(id);
  if (s == net::SlotIndex::kNone) return;
  for (const net::LinkId l : path_[s])
    links_[l.index()].reserved -= reserved_[s];
  path_[s].clear();  // keeps capacity for the next flow on this slot
  r_other_send_[s] = nullptr;  // release captured state eagerly
  r_other_recv_[s] = nullptr;
}

void RateAllocator::set_priority(net::FlowId id, double priority) {
  const std::uint32_t s = slots_.find(id);
  if (s == net::SlotIndex::kNone)
    throw std::out_of_range("RateAllocator: unknown flow");
  priority_[s] = std::max(priority, 0.0);
}

double RateAllocator::priority(net::FlowId id) const {
  const std::uint32_t s = slots_.find(id);
  if (s == net::SlotIndex::kNone)
    throw std::out_of_range("RateAllocator: unknown flow");
  return priority_[s];
}

sim::BitRate RateAllocator::flow_rate(net::FlowId id) const {
  const std::uint32_t s = slots_.find(id);
  return s == net::SlotIndex::kNone ? sim::BitRate{} : rate_[s];
}

sim::BitRate RateAllocator::path_rate(net::NodeId src, net::NodeId dst) const {
  return path_rate(net_.path(src, dst));
}

sim::BitRate RateAllocator::path_rate(
    const std::vector<net::LinkId>& path) const {
  sim::BitRate r{std::numeric_limits<double>::infinity()};
  for (const net::LinkId l : path)
    r = sim::min(r, links_[l.index()].rate);
  return std::isfinite(r.bps()) ? r : sim::BitRate{};
}

void RateAllocator::set_link_up(net::LinkId l, bool up) {
  auto& st = links_.at(l.index());
  st.down = !up;
  if (!up) {
    st.rate = sim::BitRate{};
    st.gamma = sim::BitRate{};
  } else {
    // Recovered link: quote its idle rate (same seed as construction);
    // the next tick recomputes the exact value from the counters.
    const sim::BitRate c = net_.link(l).capacity();
    st.rate = params_.alpha * c;
    st.gamma = params_.alpha * c;
  }
}

void RateAllocator::refresh_flow_rates() {
  for (const net::SlotIndex::Entry& e : slots_) {
    const std::uint32_t s = e.slot;
    sim::BitRate base{std::numeric_limits<double>::infinity()};
    bool down = false;
    for (const net::LinkId l : path_[s]) {
      const auto& st = links_[l.index()];
      down = down || st.down;
      base = sim::min(base, st.rate);
    }
    if (!std::isfinite(base.bps())) base = sim::BitRate{};
    if (down) {
      rate_[s] = sim::BitRate{};
      continue;
    }
    sim::BitRate r = reserved_[s] + priority_[s] * base;
    if (r_other_send_[s]) r = sim::min(r, r_other_send_[s]());
    if (r_other_recv_[s]) r = sim::min(r, r_other_recv_[s]());
    rate_[s] = sim::max(r, params_.min_rate);
  }
}

void RateAllocator::tick() {
  const double tau = params_.tau;
  const sim::Time now = net_.sim().now();
  ++control_stats_.ticks;
  control_stats_.flow_updates += slots_.size();
  control_stats_.link_updates += links_.size();

  // Pass 1: effective capacity per link from the switch counters Q(t)
  // (and L(t) for the simplified metric).
  for (std::size_t l = 0; l < links_.size(); ++l) {
    auto& st = links_[l];
    net::Link& link = net_.link(net::LinkId::from_index(l));
    st.down = !link.up();
    if (st.down) {
      st.gamma = sim::BitRate{};
      st.rate = sim::BitRate{};
      st.rate_sum = sim::BitRate{};
      st.share_sum = sim::BitRate{};
      continue;
    }
    st.gamma = effective_capacity(link.capacity(),
                                  sim::ByteCount{link.queue_bytes()}.bits(),
                                  tau, params_.alpha, params_.beta);
    st.rate_sum = sim::BitRate{};
    st.share_sum = sim::BitRate{};
  }

  // Pass 2: per-flow end-to-end allocation from the *previous* interval's
  // link rates (this is the information the top-down RA pass delivered to
  // each RM), accumulated into each crossed link's S.
  //
  // The walk follows the sorted flow-id index, so the floating-point
  // accumulation order into S is ascending-id — a pure function of the
  // registered flow set, portable across standard libraries.
  for (const net::SlotIndex::Entry& e : slots_) {
    const std::uint32_t s = e.slot;
    sim::BitRate base{std::numeric_limits<double>::infinity()};
    bool down = false;
    for (const net::LinkId l : path_[s]) {
      const auto& lst = links_[l.index()];
      down = down || lst.down;
      base = sim::min(base, lst.rate);
    }
    if (!std::isfinite(base.bps())) base = sim::BitRate{};

    sim::BitRate r = reserved_[s] + priority_[s] * base;
    if (r_other_send_[s]) r = sim::min(r, r_other_send_[s]());
    if (r_other_recv_[s]) r = sim::min(r, r_other_recv_[s]());
    // A path crossing a down link is allocated exactly 0 (not the min-rate
    // floor): the fluid engine parks such flows and packet senders stall
    // until recovery re-rates them.
    const sim::BitRate rate =
        down ? sim::BitRate{} : sim::max(r, params_.min_rate);
    rate_[s] = rate;

    const sim::BitRate share = sim::max(sim::BitRate{}, rate - reserved_[s]);
    // The empty asm pins the two addends as plain register defs. Both are
    // PHIs (of the down/min-rate branches above), and gcc's SLP refuses to
    // pack a PHI pair spanning blocks — without the pin the accumulation
    // below compiles to two scalar addsd per link instead of the single
    // packed addpd the pre-Quantity code got. Value-preserving: the asm
    // has no code, it only blocks the PHI lookthrough.
    // scda-lint: allow(units) numeric-kernel boundary: SLP-packed accumulate
    double rate_v = rate.bps(), share_v = share.bps();
    asm("" : "+x"(rate_v), "+x"(share_v));
    for (const net::LinkId l : path_[s]) {
      auto& lk = links_[l.index()];
      lk.rate_sum = sim::BitRate{lk.rate_sum.bps() + rate_v};
      lk.share_sum = sim::BitRate{lk.share_sum.bps() + share_v};
    }
  }

  // Pass 3: new per-link rates (eq. 2 or eq. 5) over the shareable capacity
  // (capacity minus explicit reservations, section IV-C), plus SLA checks
  // against the full effective capacity (section IV-A).
  for (std::size_t l = 0; l < links_.size(); ++l) {
    auto& st = links_[l];
    net::Link& link = net_.link(net::LinkId::from_index(l));
    if (st.down) {
      // Pinned at zero while down; drain the interval counter so stale
      // pre-failure arrivals don't distort the first post-recovery round.
      st.nhat = 0;
      (void)link.take_interval_arrived_bytes();
      continue;
    }
    const sim::BitRate shareable =
        sim::max(st.gamma - st.reserved, params_.min_rate);

    if (params_.metric == RateMetricKind::kExact) {
      st.nhat = effective_flows(st.share_sum, st.rate);
      st.rate = exact_rate(shareable, st.share_sum, st.rate,
                           params_.min_rate);
    } else {
      const sim::BitCount l_bits =
          sim::ByteCount{link.take_interval_arrived_bytes()}.bits();
      st.nhat = effective_flows(
          sim::BitRate{static_cast<double>(l_bits.bits()) / tau}, st.rate);
      st.rate =
          simplified_rate(shareable, l_bits, tau, st.rate,
                          params_.min_rate);
    }

    if (sla_violated(st.rate_sum, st.gamma)) {
      ++st.sla_violations;
      ++total_sla_violations_;
      if (obs::TraceRecorder* tr = obs::tracer_of(net_.sim())) {
        tr->instant(now, "control", "sla_violation", obs::kTrackControl,
                    {{"link", static_cast<double>(l)},
                     {"rate_sum_bps", st.rate_sum.bps()},
                     {"gamma_bps", st.gamma.bps()}});
      }
      if (on_sla_)
        on_sla_(net::LinkId::from_index(l), st.rate_sum, st.gamma, now);
    }
  }

  if (obs::TraceRecorder* tr = obs::tracer_of(net_.sim())) {
    tr->instant(now, "control", "ra_round", obs::kTrackControl,
                {{"flows", static_cast<double>(slots_.size())},
                 {"links", static_cast<double>(links_.size())},
                 {"violations", static_cast<double>(total_sla_violations_)}});
  }

  // Epoch notification last: subscribers (the fluid engine) see the fully
  // settled allocations of this round.
  if (on_epoch_) on_epoch_();
}

}  // namespace scda::core
