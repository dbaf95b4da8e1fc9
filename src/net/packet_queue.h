// PacketQueue: a link queue over shared PacketPool slots, with O(1) FIFO
// service and O(log F) SJF service (F = flows currently queued).
//
// Queued packets sit in pool slots threaded onto two lists: a global
// doubly-linked arrival-order list (FIFO service, middle removal for SJF)
// and a per-flow singly-linked chain. The SJF discipline (paper section
// IV-B: serve the queued packet whose flow has transmitted the fewest
// packets on this link) keeps an ordered index of queued flows keyed by
// (tx-count, arrival of the flow's oldest packet), replacing the seed's
// O(n) whole-queue scan per transmitted packet. Ties on tx-count go to
// the flow that has waited longest, and within a flow service is strictly
// FIFO — so SJF can no longer reorder packets of the same flow, which the
// seed's swap-to-front scan could.
#pragma once

#include <cassert>
#include <cstdint>
#include <set>
#include <unordered_map>

#include "net/packet.h"
#include "net/packet_pool.h"

namespace scda::net {

/// Queueing discipline (paper section IV-B).
///   kFifo — classic drop-tail FIFO (default, what the evaluation uses)
///   kSjf  — OpenFlow-switch SJF approximation: the switch keeps a packet
///           count per flow and always serves the queued packet whose flow
///           has sent the fewest packets so far; flows that already sent a
///           lot are implicitly de-prioritized (their ACKs are delayed).
enum class QueueDiscipline : std::uint8_t { kFifo, kSjf };

class PacketQueue {
 public:
  using Index = PacketPool::Index;
  static constexpr Index kNull = PacketPool::kNull;

  struct Perf {
    std::uint64_t pool_hwm = 0;    ///< peak concurrently queued packets
    std::uint64_t sjf_selects = 0; ///< SJF selections served from the index
  };

  explicit PacketQueue(PacketPool& pool) : pool_(pool) {}
  PacketQueue(const PacketQueue&) = delete;
  PacketQueue& operator=(const PacketQueue&) = delete;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const Perf& perf() const noexcept { return perf_; }

  [[nodiscard]] QueueDiscipline discipline() const noexcept {
    return discipline_;
  }
  /// Switch discipline; safe with packets queued (the SJF index is rebuilt
  /// from the arrival-order list). Flow tx-counts persist across switches
  /// and start from zero the first time SJF is enabled.
  void set_discipline(QueueDiscipline d);

  /// Append a packet (arrival order). O(1) for FIFO; O(log F) when the
  /// packet's flow joins the SJF index.
  void push(Packet&& p);

  /// Pick the packet to serve next per the discipline, without removing
  /// it. The returned slot index stays valid until detach(), across any
  /// pushes in between.
  [[nodiscard]] Index select_next();

  [[nodiscard]] const Packet& packet(Index n) const noexcept {
    return pool_.at(n).pkt;
  }

  /// Remove a previously selected packet from the queue. Its slot stays
  /// acquired and now belongs to the caller, who relinks it or takes the
  /// packet out of the pool.
  void detach(Index n);

  /// Account one transmitted packet against `flow` (SJF bookkeeping;
  /// counts only advance while the SJF discipline is active, matching the
  /// OpenFlow Cnt_j counter that exists only on SJF switches).
  void note_transmitted(FlowId flow);

  /// Peak tx-count bookkeeping, exposed for tests.
  [[nodiscard]] std::uint64_t tx_count(FlowId flow) const {
    const auto it = flows_.find(flow);
    return it == flows_.end() ? 0 : it->second.tx_count;
  }

 private:
  struct FlowState {
    std::uint64_t tx_count = 0;
    Index head = kNull;  ///< oldest queued packet of the flow
    Index tail = kNull;
    std::uint32_t queued = 0;
  };

  /// SJF service order: lowest tx-count first, then longest-waiting flow.
  struct SjfKey {
    std::uint64_t count;
    std::uint64_t arrival;  ///< arrival of the flow's oldest queued packet
    FlowId flow;
    bool operator<(const SjfKey& o) const noexcept {
      if (count != o.count) return count < o.count;
      if (arrival != o.arrival) return arrival < o.arrival;
      return flow < o.flow;
    }
  };

  void unlink_global(Index n) noexcept;
  void index_insert(FlowId flow, const FlowState& st);
  void index_erase(FlowId flow, const FlowState& st);
  void rebuild_sjf_state();

  PacketPool& pool_;
  Index head_ = kNull;  ///< global arrival-order list
  Index tail_ = kNull;
  std::size_t size_ = 0;
  std::uint64_t arrival_seq_ = 0;

  QueueDiscipline discipline_ = QueueDiscipline::kFifo;
  /// Per-flow state; chains/index only maintained while SJF is active.
  std::unordered_map<FlowId, FlowState> flows_;
  /// SJF needs min-remaining-size selection with arbitrary removal; an
  /// ordered index is the data structure, and it is only populated while
  /// the SJF discipline is active (see `sjf_selects` in docs/perf.md).
  // scda-lint: allow(map-hot-path)
  std::set<SjfKey> sjf_order_;

  Perf perf_;
};

}  // namespace scda::net
