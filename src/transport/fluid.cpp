#include "transport/fluid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace scda::transport {

std::uint32_t FluidEngine::slot_of(net::FlowId id, const char* what) const {
  const std::uint32_t slot = slots_.find(id);
  if (slot == net::SlotIndex::kNone)
    throw std::invalid_argument(std::string(what) + ": unknown flow");
  return slot;
}

void FluidEngine::start(net::FlowId id, std::int64_t size_bytes,
                        sim::BitRate rate,
                        const std::vector<net::LinkId>& path) {
  if (size_bytes < 0)
    throw std::invalid_argument("FluidEngine::start: negative size");
  const std::uint32_t slot = slots_.insert(id);
  if (slot == net::SlotIndex::kNone)
    throw std::invalid_argument("FluidEngine::start: duplicate flow id");
  if (slot == size_.size()) {
    size_.emplace_back();
    delivered_.emplace_back();
    accounted_.emplace_back();
    rate_.emplace_back();
    last_update_.emplace_back();
    latency_.emplace_back();
    completion_.emplace_back();
    path_.emplace_back();
  }
  size_[slot] = size_bytes;
  delivered_[slot] = 0;
  accounted_[slot] = 0;
  rate_[slot] = sim::max(rate, sim::BitRate{});
  last_update_[slot] = net_.sim().now();
  completion_[slot] = sim::EventHandle{};
  path_[slot].assign(path.begin(), path.end());

  sim::Time lat{};
  for (const net::LinkId l : path) {
    lat = lat + net_.link(l).prop_delay();
    net_.link(l).fluid_flow_join();
  }
  latency_[slot] = lat;

  ++stats_.started;
  arm_completion(id, slot);
}

void FluidEngine::advance(std::uint32_t slot) {
  const sim::Time now = net_.sim().now();
  const sim::Time dt = now - last_update_[slot];
  last_update_[slot] = now;
  if (dt <= sim::Time{} || rate_[slot] <= sim::BitRate{}) return;

  // Fractional-byte integration boundary: unwrap once, keeping the exact
  // rate * seconds / 8 expression of the committed baselines.
  delivered_[slot] =
      std::min(static_cast<double>(size_[slot]),
               delivered_[slot] + rate_[slot].bps() * dt.seconds() / 8.0);
  const auto whole = static_cast<std::int64_t>(delivered_[slot]);
  const std::int64_t newly = whole - accounted_[slot];
  if (newly > 0) {
    for (const net::LinkId l : path_[slot]) net_.link(l).add_fluid_bytes(newly);
    accounted_[slot] = whole;
  }
}

void FluidEngine::arm_completion(net::FlowId id, std::uint32_t slot) {
  const double remaining =
      static_cast<double>(size_[slot]) - delivered_[slot];
  if (remaining <= 0) {
    // Injection already finished under an earlier rate; the completion
    // event armed then (inject time + latency) is still correct. A
    // zero-byte flow has no such event yet — complete it after latency.
    if (!completion_[slot].valid()) {
      completion_[slot] = net_.sim().schedule_at(
          net_.sim().now() + latency_[slot], [this, id] { complete(id); });
    }
    return;
  }
  if (rate_[slot] <= sim::BitRate{}) {
    // Parked: no progress until a re-rate revives the flow.
    net_.sim().cancel(completion_[slot]);
    completion_[slot] = sim::EventHandle{};
    return;
  }
  const sim::Time t =
      net_.sim().now() + sim::secs(remaining * 8.0 / rate_[slot].bps()) +
      latency_[slot];
  completion_[slot] = net_.sim().reschedule_at(completion_[slot], t,
                                               [this, id] { complete(id); });
}

void FluidEngine::set_rate(net::FlowId id, sim::BitRate rate) {
  const std::uint32_t slot = slot_of(id, "FluidEngine::set_rate");
  advance(slot);
  rate_[slot] = sim::max(rate, sim::BitRate{});
  ++stats_.rerates;
  arm_completion(id, slot);
}

void FluidEngine::rerate_all(
    const std::function<sim::BitRate(net::FlowId)>& rate_of, bool epoch) {
  if (epoch) ++stats_.epochs;
  // Ascending-id order; re-rating never mutates the index, so plain
  // iteration is safe (completions only run from scheduled events).
  for (const auto& [id, slot] : slots_) {
    advance(slot);
    rate_[slot] = sim::max(rate_of(id), sim::BitRate{});
    ++stats_.rerates;
    arm_completion(id, slot);
  }
}

void FluidEngine::complete(net::FlowId id) {
  const std::uint32_t slot = slots_.erase(id);
  assert(slot != net::SlotIndex::kNone && "fluid completion for unknown flow");

  // Force the exact byte total: the event time was computed from the same
  // remaining/rate pair, so any difference is float residue, not model
  // error. Charge the tail to the links before they lose the flow.
  const std::int64_t tail = size_[slot] - accounted_[slot];
  for (const net::LinkId l : path_[slot]) {
    if (tail > 0) net_.link(l).add_fluid_bytes(tail);
    net_.link(l).fluid_flow_leave();
  }
  delivered_[slot] = static_cast<double>(size_[slot]);
  accounted_[slot] = size_[slot];
  completion_[slot] = sim::EventHandle{};  // fired; nothing to cancel
  ++stats_.completed;

  if (on_complete_) on_complete_(id);
}

void FluidEngine::abort(net::FlowId id) {
  const std::uint32_t slot = slots_.erase(id);
  if (slot == net::SlotIndex::kNone)
    throw std::invalid_argument("FluidEngine::abort: unknown flow");

  // Charge what actually made it onto the wire, then detach from the path.
  advance(slot);
  for (const net::LinkId l : path_[slot]) net_.link(l).fluid_flow_leave();
  net_.sim().cancel(completion_[slot]);
  completion_[slot] = sim::EventHandle{};
  ++stats_.aborted;
}

std::int64_t FluidEngine::delivered_bytes(net::FlowId id) const {
  return static_cast<std::int64_t>(
      delivered_[slot_of(id, "FluidEngine::delivered_bytes")]);
}

sim::BitRate FluidEngine::rate(net::FlowId id) const {
  return rate_[slot_of(id, "FluidEngine::rate")];
}

}  // namespace scda::transport
