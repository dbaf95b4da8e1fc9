// Unidirectional link with a drop-tail queue.
//
// Models transmission (size/capacity) followed by propagation (fixed delay),
// exactly like an NS2 SimpleLink + DropTail queue. Links expose the two
// counters the SCDA paper reads from real switches (section IV): the
// instantaneous queue length Q(t) and the bytes that arrived during the
// current control interval L(t). Resource monitors/allocators sample both.
//
// A Link keeps inline only what the control, fluid and packet paths read
// on every link: its ends, capacity, delays and queue limit, Q(t), L(t),
// the fluid-flow count, the up flag, the byte counters and a delivery
// hook. The packet engine (queue, in-flight FIFO, packet and drop
// counters) is a Port allocated when the link is first offered a packet
// or switched to SJF, whose index the queue allocates in turn; the NS2
// error model and a standalone delivery callback sit in a Cold record
// allocated by their setters. A link that only carries fluid flows holds
// neither.
//
// A packet occupies one slot of the network's shared PacketPool from the
// moment the link accepts it until the far end takes it for delivery. The
// queue (FIFO or OpenFlow-SJF service) and the propagation stage are lists
// threaded through those slots: finishing transmission relinks the slot
// onto the in-flight FIFO without copying the packet. Packet memory is
// therefore bounded by the packets the whole network holds at once, and
// the steady-state packet path performs no heap allocation.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/packet_queue.h"
#include "sim/simulator.h"

namespace scda::net {

struct LinkStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t enqueued_packets = 0;
  /// Bytes advanced analytically by fluid-mode flows (also counted in
  /// tx_bytes so utilization/power see one unified byte stream).
  std::uint64_t fluid_bytes = 0;
};

class Link {
 public:
  /// `deliver` is invoked at the downstream node after propagation.
  using DeliverFn = std::function<void(Packet&&)>;
  /// Delivery without a std::function: called with `hook_ctx`, the packet
  /// and the link's far end. A Network passes its forwarding step.
  using DeliverHook = void (*)(void* ctx, Packet&& p, NodeId at);

  /// `pool` holds the link's queued and propagating packets; it is shared
  /// with the other links of the network and must outlive the link.
  Link(sim::Simulator& sim, PacketPool& pool, LinkId id, NodeId from,
       NodeId to, sim::BitRate capacity, double prop_delay_s,
       std::int64_t queue_limit_bytes, DeliverHook hook = nullptr,
       void* hook_ctx = nullptr)
      : capacity_(capacity),
        prop_delay_(sim::secs(prop_delay_s)),
        queue_limit_bytes_(queue_limit_bytes),
        id_(id),
        from_(from),
        to_(to),
        sim_(sim),
        pool_(pool),
        hook_(hook),
        hook_ctx_(hook_ctx) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;
  /// For the build phase only (a network's link array growing): the link
  /// must hold no packet, since a transmitting or propagating one has a
  /// pending event bound to this object.
  Link(Link&& o) noexcept;

  /// Deliver through `fn` instead of the hook given at construction.
  void set_deliver(DeliverFn fn);

  /// Select the queueing discipline. Safe to call at any time; kSjf starts
  /// counting flow packets from the moment it is enabled.
  void set_discipline(QueueDiscipline d);
  [[nodiscard]] QueueDiscipline discipline() const noexcept {
    return port_ ? port_->queue.discipline() : QueueDiscipline::kFifo;
  }

  /// NS2-style error model: drop each offered packet with probability `p`
  /// (in addition to drop-tail losses). Pass the simulation RNG so runs
  /// stay reproducible.
  void set_error_model(double p, sim::Rng* rng);
  [[nodiscard]] double loss_probability() const noexcept {
    return cold_ ? cold_->loss_probability : 0.0;
  }

  /// Offer a packet to the link. Drop-tail if the queue is full.
  /// Returns false when dropped.
  bool enqueue(Packet&& p);

  // --- identification ----------------------------------------------------
  [[nodiscard]] LinkId id() const noexcept { return id_; }
  [[nodiscard]] NodeId from() const noexcept { return from_; }
  [[nodiscard]] NodeId to() const noexcept { return to_; }
  [[nodiscard]] sim::BitRate capacity() const noexcept { return capacity_; }
  /// Raw bits-per-second unwrap (JSON/trace emission boundary only).
  [[nodiscard]] double capacity_bps() const noexcept {
    return capacity_.bps();
  }
  /// Raise/lower the link capacity at runtime; models switching reserve or
  /// backup capacity into a congested path (paper section IV-A mitigation).
  void set_capacity(sim::BitRate c) noexcept {
    if (c > sim::BitRate{}) capacity_ = c;
  }
  // --- up/down state (failure injection; docs/scenarios.md) ---------------
  /// A down link refuses all offered packets (counted as drops) and is
  /// treated as zero-capacity by the rate allocator, parking fluid flows.
  /// Packets already transmitted keep propagating: a physical cut loses
  /// what is on the wire *behind* the cut, and the queue is behind it.
  void set_up(bool up) noexcept { up_ = up; }
  [[nodiscard]] bool up() const noexcept { return up_; }

  /// Propagation delay as exact simulation time (the value every delivery
  /// deadline is built from; rounded once, at construction).
  [[nodiscard]] sim::Time prop_delay() const noexcept { return prop_delay_; }
  [[nodiscard]] double prop_delay_s() const noexcept {
    return prop_delay_.seconds();
  }
  [[nodiscard]] std::int64_t queue_limit_bytes() const noexcept {
    return queue_limit_bytes_;
  }

  // --- switch counters read by RM/RA (paper section IV) -------------------
  /// Current queue occupancy in bytes, Q(t).
  [[nodiscard]] std::int64_t queue_bytes() const noexcept {
    return queued_bytes_;
  }
  /// Bytes that arrived (were offered) since the counter was last taken;
  /// L(t) in the simplified rate metric (eq. 5). Resets the counter.
  [[nodiscard]] std::int64_t take_interval_arrived_bytes() noexcept {
    const auto v = interval_arrived_bytes_;
    interval_arrived_bytes_ = 0;
    return v;
  }
  /// Non-destructive view of the interval byte counter.
  [[nodiscard]] std::int64_t interval_arrived_bytes() const noexcept {
    return interval_arrived_bytes_;
  }

  // --- fluid-mode accounting (docs/fluid_engine.md) -----------------------
  // Fluid flows never enqueue packets; they charge the link in byte deltas
  // at each rate-allocation epoch. The bytes land in tx_bytes (utilization,
  // power) and in the L(t) interval counter (so the simplified rate metric
  // sees fluid load), but never in Q(t) — a fluid-only link is queueless by
  // construction.
  /// Charge `bytes` of analytically-advanced fluid traffic to the link.
  void add_fluid_bytes(std::int64_t bytes) noexcept {
    fluid_bytes_ += static_cast<std::uint64_t>(bytes);
    tx_bytes_ += static_cast<std::uint64_t>(bytes);
    interval_arrived_bytes_ += bytes;
  }
  /// A fluid flow starts/stops crossing the link (no queue entry).
  void fluid_flow_join() noexcept { ++fluid_flows_; }
  void fluid_flow_leave() noexcept {
    assert(fluid_flows_ > 0 && "fluid flow count underflow");
    --fluid_flows_;
  }
  /// Fluid flows currently crossing the link.
  [[nodiscard]] std::int32_t fluid_flows() const noexcept {
    return fluid_flows_;
  }

  /// Counters; the packet ones read zero on a link never offered a packet.
  [[nodiscard]] LinkStats stats() const noexcept {
    LinkStats s;
    s.tx_bytes = tx_bytes_;
    s.fluid_bytes = fluid_bytes_;
    if (port_) {
      s.tx_packets = port_->tx_packets;
      s.dropped_packets = port_->dropped_packets;
      s.dropped_bytes = port_->dropped_bytes;
      s.enqueued_packets = port_->enqueued_packets;
    }
    return s;
  }
  /// Queue-structure perf counters (queue depth peak, SJF index use).
  [[nodiscard]] PacketQueue::Perf queue_perf() const noexcept {
    return port_ ? port_->queue.perf() : PacketQueue::Perf{};
  }

  /// Long-run utilization in [0,1]: transmitted bits / (capacity * elapsed).
  [[nodiscard]] double utilization(double elapsed_s) const noexcept {
    if (elapsed_s <= 0) return 0;
    return static_cast<double>(tx_bytes_) * 8.0 /
           (capacity_.bps() * elapsed_s);
  }

  /// Delay until the head of the propagation queue is due. Deadlines are
  /// exact integer-nanosecond sums of the same now + prop_delay values the
  /// timers were armed with, so a head that is past due is a scheduling
  /// bug.
  [[nodiscard]] static sim::Time delivery_delay(sim::Time due,
                                                sim::Time now) noexcept {
    assert(due >= now && "propagation deadline in the past: scheduling bug");
    return due - now;
  }

 private:
  /// The packet engine of a link that carries packets.
  struct Port {
    explicit Port(PacketPool& pool) : queue(pool) {}
    PacketQueue queue;
    /// Slot selected for the transmission in progress (queued until the
    /// tx-complete event detaches it).
    PacketPool::Index cur_slot = PacketPool::kNull;
    /// Slots transmitted and propagating, linked through Slot::next and
    /// keyed by their delivery deadline. FIFO because the propagation
    /// delay is constant, so one timer (for the head) suffices and the
    /// per-packet closure never captures the packet itself. The timer is
    /// armed exactly while the list is non-empty.
    PacketPool::Index inflight_head = PacketPool::kNull;
    PacketPool::Index inflight_tail = PacketPool::kNull;
    bool transmitting = false;
    std::uint64_t tx_packets = 0;
    std::uint64_t dropped_packets = 0;
    std::uint64_t dropped_bytes = 0;
    std::uint64_t enqueued_packets = 0;
  };
  /// Per-link settings that few links use.
  struct Cold {
    double loss_probability = 0.0;
    sim::Rng* loss_rng = nullptr;
    DeliverFn deliver;
  };

  /// The port or cold record, allocated on first use.
  Port& ensure_port();
  Cold& ensure_cold();
  void start_transmission(Port& port);
  void on_tx_complete();
  void deliver_head();
  /// Count a refused packet and leave a flight-recorder instant for it
  /// (no-op when the simulator carries no trace recorder).
  void drop(Port& port, const Packet& p, const char* reason);

  // What the rate allocator's and fluid engine's per-tick passes read
  // comes first, in the first 64 bytes.
  sim::BitRate capacity_;
  std::int64_t queued_bytes_ = 0;
  std::int64_t interval_arrived_bytes_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t fluid_bytes_ = 0;
  sim::Time prop_delay_;
  std::int64_t queue_limit_bytes_;
  std::int32_t fluid_flows_ = 0;
  bool up_ = true;
  LinkId id_;
  NodeId from_;
  NodeId to_;
  sim::Simulator& sim_;
  PacketPool& pool_;
  DeliverHook hook_;
  void* hook_ctx_;
  std::unique_ptr<Port> port_;
  std::unique_ptr<Cold> cold_;
};
// The allocator's per-tick passes walk every link: keep it two cache lines.
static_assert(sizeof(Link) <= 128, "Link outgrew its hot state");

}  // namespace scda::net
