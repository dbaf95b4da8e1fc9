// RateAllocator: the per-link allocation engine behind the RM/RA hierarchy.
//
// Every control interval tau it recomputes, for every link, the per-flow
// fair rate R_l(t) (eq. 2 exact, or eq. 5 simplified) and, for every
// registered flow, its end-to-end allocation
//
//     r_j = min(M_j + p_j * min_{l in path} R_l, R_other(src), R_other(dst))
//
// which is exactly the distributed fixed point the RM/RA message exchanges
// of paper section VI compute: a link where a flow is bottlenecked elsewhere
// counts it as r_j / R < 1 effective flows (eq. 3), so the residual
// bandwidth flows to the flows that can use it — weighted max-min fairness.
// R_other is an endpoint's CPU/disk rate (section VI-A), read through one
// hook the owner sets (set_r_other_hook).
//
// The engine is topology-agnostic (section IX): it only needs each flow's
// path, which the tree RM/RA hierarchy (hierarchy.h) derives from routing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/params.h"
#include "net/network.h"
#include "net/slot_index.h"

namespace scda::core {

/// Callback invoked when a link's demand exceeds its effective capacity
/// (SLA violation, section IV-A): (link, S, gamma, time).
using SlaViolationFn =
    std::function<void(net::LinkId, sim::BitRate, sim::BitRate, sim::Time)>;

class RateAllocator {
 public:
  RateAllocator(net::Network& net, const ScdaParams& params);

  RateAllocator(const RateAllocator&) = delete;
  RateAllocator& operator=(const RateAllocator&) = delete;

  // --- flow registry --------------------------------------------------------
  /// The non-network (CPU/disk) rate R_other of endpoint `node` (section
  /// VI-A); +infinity when it has none. Called with the context given to
  /// set_r_other_hook.
  using ROtherHook = sim::BitRate (*)(const void* ctx, net::NodeId node);
  /// Cap every flow registered by its endpoints at the R_other of both,
  /// read through `hook` on each allocation. Without a hook, and for flows
  /// registered by path alone, allocations are link-bound only.
  void set_r_other_hook(ROtherHook hook, const void* ctx) noexcept {
    r_other_ = hook;
    r_other_ctx_ = ctx;
  }

  void register_flow(net::FlowId id, net::NodeId src, net::NodeId dst,
                     double priority = 1.0, sim::BitRate reserved = {});

  /// Register a flow on an explicit path (source-routed flows on general
  /// topologies, paper section IX).
  void register_flow_on_path(net::FlowId id,
                             const std::vector<net::LinkId>& path,
                             double priority = 1.0, sim::BitRate reserved = {});
  void unregister_flow(net::FlowId id);
  [[nodiscard]] bool has_flow(net::FlowId id) const {
    return slots_.find(id) != net::SlotIndex::kNone;
  }
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return slots_.size();
  }

  /// Change a flow's priority weight (adaptive policies, section IV-A).
  void set_priority(net::FlowId id, double priority);
  [[nodiscard]] double priority(net::FlowId id) const;

  // --- control interval -----------------------------------------------------
  /// Recompute gamma, per-flow rates, S and the new per-link rates.
  void tick();

  /// Recompute only the per-flow rates from the current link rates (no
  /// link-state updates, no SLA checks). Used right after an admission so
  /// existing senders drop to their post-admission shares immediately
  /// instead of overdriving the path until the next tick.
  void refresh_flow_rates();

  // --- queries ---------------------------------------------------------------
  /// Per-flow fair rate currently advertised by a link (R_l).
  [[nodiscard]] sim::BitRate link_rate(net::LinkId l) const {
    return links_.at(l.index()).rate;
  }
  /// Sum of flow rates S crossing the link in the last tick.
  [[nodiscard]] sim::BitRate link_rate_sum(net::LinkId l) const {
    return links_.at(l.index()).rate_sum;
  }
  /// Rate a prospective new flow of the given weight would get on the link:
  /// gamma_share / (N-hat + priority). This is the link weight route
  /// selection should compare (section IX) — unlike link_rate it
  /// distinguishes an idle link from one whose single flow uses it fully.
  [[nodiscard]] sim::BitRate prospective_link_rate(net::LinkId l,
                                                   double priority = 1.0) const {
    const auto& st = links_.at(l.index());
    if (st.down) return sim::BitRate{};
    const sim::BitRate shareable =
        sim::max(st.gamma - st.reserved, params_.min_rate);
    return sim::clamp(shareable / std::max(st.nhat + priority, 1.0),
                      params_.min_rate, shareable);
  }

  // --- link failure state ----------------------------------------------------
  /// Mark a link down/up for allocation purposes (failure injection,
  /// docs/scenarios.md). A down link advertises zero per-flow rate and zero
  /// effective capacity, and every flow whose path crosses it is allocated
  /// exactly 0 — bypassing the min-rate floor — so fluid flows park instead
  /// of stranding their completion events. tick() also re-reads Link::up()
  /// each round, so direct Link toggles converge within one interval.
  void set_link_up(net::LinkId l, bool up);
  /// The flow's current end-to-end allocation r_j.
  [[nodiscard]] sim::BitRate flow_rate(net::FlowId id) const;

  /// Rate a *new* unit-weight flow would get along src->dst right now:
  /// min over the path of the per-link rates (the value the NNS asks the
  /// RA/RM hierarchy for, paper Figs. 3-5).
  [[nodiscard]] sim::BitRate path_rate(net::NodeId src, net::NodeId dst) const;
  /// Same, over an explicit link sequence.
  [[nodiscard]] sim::BitRate path_rate(
      const std::vector<net::LinkId>& path) const;

  // --- control-plane cost counters -------------------------------------------
  /// Cumulative RM/RA round cost: how many control ticks ran and how much
  /// per-flow / per-link work each round performed (paper section VI's
  /// message-exchange volume). Read by the observability layer at end of
  /// run; maintained with plain increments so it costs nothing measurable.
  struct ControlStats {
    std::uint64_t ticks = 0;          ///< RM/RA rounds executed
    std::uint64_t flow_updates = 0;   ///< per-flow rate recomputations
    std::uint64_t link_updates = 0;   ///< per-link R_l recomputations
  };
  [[nodiscard]] const ControlStats& control_stats() const noexcept {
    return control_stats_;
  }

  // --- SLA -------------------------------------------------------------------
  void set_sla_callback(SlaViolationFn fn) { on_sla_ = std::move(fn); }
  [[nodiscard]] std::uint64_t sla_violations() const noexcept {
    return total_sla_violations_;
  }
  [[nodiscard]] std::uint64_t sla_violations(net::LinkId l) const {
    return links_.at(l.index()).sla_violations;
  }

  [[nodiscard]] const ScdaParams& params() const noexcept { return params_; }

 private:
  struct LinkState {
    sim::BitRate rate{};      ///< R_l(t), per-flow fair share
    sim::BitRate gamma{};     ///< effective capacity this tick
    sim::BitRate rate_sum{};  ///< S_l(t), total flow demand
    sim::BitRate share_sum{}; ///< S minus reserved portions (shared demand)
    sim::BitRate reserved{};  ///< sum of M_j over flows crossing the link
    double nhat = 0;          ///< effective flow count (dimensionless)
    bool down = false;        ///< link failed: rate/gamma pinned to zero
    std::uint64_t sla_violations = 0;
  };
  /// Endpoints whose R_other caps the flow; kInvalidNode for a flow
  /// registered by path alone.
  struct Ends {
    net::NodeId src, dst;
  };

  void add_flow(net::FlowId id, const std::vector<net::LinkId>& path,
                Ends ends, double priority, sim::BitRate reserved);

  /// Slot `s`'s allocation r_j from the current link rates: 0 when its
  /// path crosses a down link, else its weighted path rate capped by its
  /// endpoints' R_other and floored at min_rate.
  [[nodiscard]] sim::BitRate allocation(std::uint32_t s) const;

  net::Network& net_;
  ScdaParams params_;
  std::vector<LinkState> links_;

  // --- dense struct-of-arrays flow table -------------------------------------
  // Flow state lives in slot-parallel arrays (the dense-table layout that
  // made water_fill ~8x, docs/perf.md): the per-tick passes stream through
  // contiguous doubles instead of chasing unordered_map nodes. `slots_`
  // maps each registered flow to its slot and recycles freed ones, so a
  // recycled slot keeps its path vector's capacity and steady
  // register/unregister churn stops allocating once the table reaches the
  // peak concurrent flow count.
  //
  // Every accumulation pass walks `slots_` in ascending flow id, so it is
  // a pure function of the registered flow set, portable across standard
  // libraries (net/slot_index.h).
  net::SlotIndex slots_;
  std::vector<double> priority_;            ///< weights (dimensionless)
  std::vector<sim::BitRate> reserved_;      ///< M_j reservations
  std::vector<sim::BitRate> rate_;          ///< r_j from the last tick
  std::vector<std::vector<net::LinkId>> path_;
  std::vector<Ends> ends_;
  ROtherHook r_other_ = nullptr;
  const void* r_other_ctx_ = nullptr;

  SlaViolationFn on_sla_;
  std::uint64_t total_sla_violations_ = 0;
  ControlStats control_stats_;
};

}  // namespace scda::core
