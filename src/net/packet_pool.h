// PacketPool: the packet slots of one Network, shared by every link.
//
// A packet occupies one slot from the moment a link accepts it until the
// far end of the link takes it out for delivery: queued, in transmission
// and propagating alike. The slot never moves in between; the link's
// queue and its in-flight FIFO only relink its indices. Freed slots are
// recycled network-wide, so the pool is sized by the peak number of
// packets the whole network holds at once, not by the sum of each link's
// own peak.
//
// Slots are addressed by index into one contiguous vector. acquire() may
// reallocate it, so a Slot& must never be held across an acquire().
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace scda::net {

class PacketPool {
 public:
  using Index = std::uint32_t;
  static constexpr Index kNull = 0xFFFFFFFFu;

  struct Slot {
    Packet pkt;
    Index prev = kNull;       ///< queue: arrival-order list
    Index next = kNull;       ///< queue, in-flight FIFO or free list
    Index flow_next = kNull;  ///< queue: per-flow chain (SJF)
    bool live = false;        ///< acquired and not yet taken (debug only)
    /// The arrival sequence number while queued; the delivery deadline in
    /// nanoseconds while propagating.
    std::uint64_t key = 0;
  };
  // The liveness flag sits in the padding before `key`: it costs no space.
  static_assert(sizeof(Slot) == 88, "packet slot grew");

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Store `p` in a free slot (a recycled one when available) and return
  /// its index. May reallocate: previously obtained Slot& are invalidated.
  [[nodiscard]] Index acquire(Packet&& p) {
    Index n = free_head_;
    if (n != kNull) {
      free_head_ = slots_[n].next;
      slots_[n].pkt = std::move(p);
    } else {
      n = static_cast<Index>(slots_.size());
      slots_.push_back(Slot{std::move(p)});
    }
#ifndef NDEBUG  // only at()'s assert reads the flag
    slots_[n].live = true;
#endif
    return n;
  }

  /// Move the packet out of slot `n` and free the slot.
  [[nodiscard]] Packet take(Index n) noexcept {
    Slot& s = at(n);
    Packet out = std::move(s.pkt);
#ifndef NDEBUG
    s.live = false;
#endif
    s.next = free_head_;
    free_head_ = n;
    return out;
  }

  /// A live slot; debug builds assert that `n` was acquired and not yet
  /// taken, since a stale index would otherwise silently reach a packet
  /// that another link now holds.
  [[nodiscard]] Slot& at(Index n) noexcept {
    assert(n < slots_.size() && slots_[n].live && "stale packet slot");
    return slots_[n];
  }

  /// Slots ever allocated: the network-wide peak of packets held at once.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }

 private:
  std::vector<Slot> slots_;
  Index free_head_ = kNull;
};

}  // namespace scda::net
