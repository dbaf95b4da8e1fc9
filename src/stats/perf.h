// Core perf counters: a snapshot of the event engine and packet-path
// bookkeeping, aggregated across a simulation. See docs/perf.md for the
// meaning of each field and the emitted format.
#pragma once

#include <cstdint>
#include <cstdio>

#include "net/network.h"
#include "sim/simulator.h"

namespace scda::stats {

struct CorePerf {
  // Event engine (sim::EventQueueStats).
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_popped = 0;
  std::uint64_t events_cancelled = 0;  ///< live events removed in O(log n)
  std::uint64_t stale_cancels = 0;     ///< cancel-after-fire O(1) no-ops
  std::uint64_t heap_hwm = 0;          ///< peak pending events
  std::uint64_t event_pool_slots = 0;  ///< event slots allocated (recycled)
  std::uint64_t callbacks_inline = 0;  ///< captures stored in-slot
  std::uint64_t callbacks_heap = 0;    ///< captures that hit the allocator

  // Packet path, over all links.
  /// Sum over links of the peak queue depth (PacketQueue::Perf::pool_hwm).
  /// The name dates from per-link queue pools, each of which grew exactly
  /// when its queue passed its previous peak, so the value is unchanged.
  /// Packets now share one pool per network (Network::packet_slots()).
  std::uint64_t link_pool_slots = 0;
  std::uint64_t link_queue_hwm = 0;    ///< max of per-link queue peaks
  std::uint64_t sjf_selects = 0;       ///< SJF index selections served

  /// Events popped per second of wall-clock, when the caller timed the run.
  [[nodiscard]] double events_per_sec(double wall_s) const noexcept {
    return wall_s > 0 ? static_cast<double>(events_popped) / wall_s : 0.0;
  }
};

/// Snapshot the simulator's event-engine counters.
[[nodiscard]] CorePerf collect_core_perf(const sim::Simulator& sim);

/// Snapshot event-engine counters plus the packet-path counters of every
/// link in `net`.
[[nodiscard]] CorePerf collect_core_perf(const sim::Simulator& sim,
                                         const net::Network& net);

/// Emit the counters as a single JSON object line prefixed with
/// `# core-perf: ` (greppable from benchmark logs, parseable after the
/// prefix is stripped).
void emit_core_perf(std::FILE* out, const CorePerf& p);

}  // namespace scda::stats
