// FluidEngine: analytic flow advancement between rate-allocation epochs.
//
// SCDA's RM/RA control plane already computes an explicit end-to-end rate
// r_j for every flow each control interval tau (rate_allocator.h). Packet
// mode spends one event per packet enforcing that rate on the wire; for a
// long flow whose rate is constant between epochs that is pure overhead —
// the delivered-byte curve is a known piecewise-linear function of time.
// Fluid mode integrates it directly: a flow carries {size, delivered,
// rate, last_update} and advances by rate x elapsed whenever its rate
// changes (an RA epoch, an admission re-rate, or an explicit set_rate).
// Its completion is a single scheduled event at
//
//     t_done = now + remaining_bits / rate + one_way_path_latency
//
// rearmed through Simulator::reschedule_at each time the rate moves. A
// k=32 fat-tree run costs O(flows x epochs) events instead of O(bytes) —
// the flowsim idiom (replicant-opera's Link::GetRatePerFlow), upgraded to
// SCDA's water-filled allocations. See docs/fluid_engine.md for the
// semantics and the fluid-vs-packet tolerance model.
//
// Links are charged byte deltas at every advance (Link::add_fluid_bytes),
// so utilization, power integration and the RM/RA L(t) counter see fluid
// traffic; queues are never touched — fluid flows are queueless by
// construction, which is exactly the fidelity packet mode retains for
// mice below the threshold (transport_manager.h makes that call).
//
// State lives in slot-parallel arrays behind the sorted flow-id index of
// net/slot_index.h, as in RateAllocator: epoch re-rates stream contiguous
// doubles in ascending-id order — deterministic and allocation-free at
// steady churn.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.h"
#include "net/slot_index.h"

namespace scda::transport {

/// Transport-layer fluid/packet mode decision knobs.
struct FluidConfig {
  bool enabled = false;
  /// Flows of at least this many bytes go fluid; smaller ones (mice) keep
  /// per-packet fidelity. 1 MiB splits the bounded-Pareto elephants from
  /// the interactive mice in every committed workload.
  std::int64_t threshold_bytes = std::int64_t{1} << 20;
};

/// Counters surfaced in the metrics catalog (transport.fluid_*).
struct FluidStats {
  std::uint64_t started = 0;    ///< flows admitted to fluid mode
  std::uint64_t completed = 0;  ///< fluid completions delivered
  std::uint64_t epochs = 0;     ///< RA-epoch re-rate rounds observed
  std::uint64_t rerates = 0;    ///< individual flow re-rate operations
  std::uint64_t aborted = 0;    ///< flows cut short by failure injection
};

class FluidEngine {
 public:
  using CompletionFn = std::function<void(net::FlowId)>;

  explicit FluidEngine(net::Network& net) : net_(net) {}

  FluidEngine(const FluidEngine&) = delete;
  FluidEngine& operator=(const FluidEngine&) = delete;

  /// Fired when a flow's last byte lands at the receiver (injection done +
  /// one-way path latency). The flow is already removed when this runs, so
  /// the callback may start new flows freely.
  void set_completion_callback(CompletionFn fn) {
    on_complete_ = std::move(fn);
  }

  /// Admit a flow: it advances at `rate` until re-rated. The path is
  /// copied into a recycled slot vector; each path link gets a
  /// fluid_flow_join and is charged byte deltas as the flow advances.
  void start(net::FlowId id, std::int64_t size_bytes, sim::BitRate rate,
             const std::vector<net::LinkId>& path);

  /// Integrate the flow up to now at its old rate, then continue at
  /// `rate`. Zero (or negative) rate parks the flow: its completion
  /// event is cancelled until a later re-rate revives it.
  void set_rate(net::FlowId id, sim::BitRate rate);

  /// Re-rate every active flow in ascending-id order from `rate_of`
  /// (typically RateAllocator::flow_rate). `epoch` marks RA-epoch rounds
  /// in the stats; admission re-rates pass false.
  void rerate_all(const std::function<sim::BitRate(net::FlowId)>& rate_of,
                  bool epoch);

  /// Tear a flow down mid-transfer (failure injection): bytes delivered so
  /// far stay charged to the links, the completion event is cancelled, and
  /// the completion callback is NOT fired — the control plane that asked
  /// for the abort owns the aftermath (retry, failover, repair).
  void abort(net::FlowId id);

  [[nodiscard]] bool has_flow(net::FlowId id) const {
    return slots_.find(id) != net::SlotIndex::kNone;
  }
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return slots_.size();
  }
  /// Bytes integrated as of the flow's last advance (start / re-rate).
  [[nodiscard]] std::int64_t delivered_bytes(net::FlowId id) const;
  [[nodiscard]] sim::BitRate rate(net::FlowId id) const;
  [[nodiscard]] const FluidStats& stats() const noexcept { return stats_; }
  /// Slots ever allocated (bounded by peak concurrent fluid flows — the
  /// churn test asserts this stays flat under steady start/complete load).
  [[nodiscard]] std::size_t pool_slots() const noexcept {
    return size_.size();
  }

 private:
  /// The slot of a live flow; throws std::invalid_argument naming `what`
  /// for an unknown one.
  [[nodiscard]] std::uint32_t slot_of(net::FlowId id, const char* what) const;
  /// Integrate delivered bytes up to now at the current rate and push the
  /// integer byte delta to every path link.
  void advance(std::uint32_t slot);
  /// (Re)schedule the completion event from the current remaining bytes
  /// and rate; cancels it when the rate is zero.
  void arm_completion(net::FlowId id, std::uint32_t slot);
  void complete(net::FlowId id);

  net::Network& net_;
  CompletionFn on_complete_;

  net::SlotIndex slots_;
  // Slot-parallel flow state.
  std::vector<std::int64_t> size_;        ///< total bytes to deliver
  /// Fractional bytes integrated so far: continuous integration state, not
  /// a wire byte count, so it stays a raw double by design.
  std::vector<double> delivered_;
  std::vector<std::int64_t> accounted_;   ///< bytes already charged to links
  std::vector<sim::BitRate> rate_;        ///< current allocated rate
  std::vector<sim::Time> last_update_;    ///< integration frontier
  std::vector<sim::Time> latency_;        ///< one-way path propagation
  std::vector<sim::EventHandle> completion_;
  std::vector<std::vector<net::LinkId>> path_;

  FluidStats stats_;
};

}  // namespace scda::transport
