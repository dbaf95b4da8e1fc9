// SlotIndex: a sorted flow-id index over recycled table slots.
//
// Per-flow state that comes and goes at run time (the rate allocator's
// registered flows, the fluid engine's active flows) lives in
// slot-parallel arrays owned by its component; this index maps each live
// flow id to its slot. Entries are kept sorted by id, so walking them is
// ascending-id: every pass that accumulates or re-rates over it is a pure
// function of the live flow set, portable across standard libraries.
// Flow ids are issued monotonically, so the common insert is a push_back.
//
// Freed slots are reused last-in-first-out; a slot recycled this way keeps
// whatever capacity its owner's arrays gave it (a path vector, say), so
// steady start/finish churn stops allocating once the slot count reaches
// the peak number of live flows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace scda::net {

class SlotIndex {
 public:
  struct Entry {
    FlowId id;
    std::uint32_t slot;
  };
  using const_iterator = std::vector<Entry>::const_iterator;
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  /// The slot of `id`, or kNone.
  [[nodiscard]] std::uint32_t find(FlowId id) const noexcept {
    const auto it = lower(id);
    return it != by_id_.end() && it->id == id ? it->slot : kNone;
  }

  /// Index `id` on the most recently freed slot or, when none is free, on
  /// a new slot one past the highest handed out so far, for which the
  /// owner grows its arrays by one. kNone, and no change, when `id` is
  /// indexed already.
  [[nodiscard]] std::uint32_t insert(FlowId id) {
    const auto it = lower(id);
    if (it != by_id_.end() && it->id == id) return kNone;
    std::uint32_t slot = slots_;
    if (free_.empty()) {
      ++slots_;
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    by_id_.insert(it, Entry{id, slot});
    return slot;
  }

  /// Drop `id` and free its slot for a later insert. Returns that slot,
  /// or kNone when `id` is not indexed. The owner's arrays keep the slot's
  /// values until the slot is handed out again.
  std::uint32_t erase(FlowId id) {
    const auto it = lower(id);
    if (it == by_id_.end() || it->id != id) return kNone;
    const std::uint32_t slot = it->slot;
    by_id_.erase(it);
    free_.push_back(slot);
    return slot;
  }

  /// Flows indexed now.
  [[nodiscard]] std::size_t size() const noexcept { return by_id_.size(); }

  /// The indexed flows in ascending id. An insert or erase invalidates
  /// the iterators.
  [[nodiscard]] const_iterator begin() const noexcept { return by_id_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return by_id_.end(); }

 private:
  [[nodiscard]] const_iterator lower(FlowId id) const noexcept {
    return std::lower_bound(by_id_.begin(), by_id_.end(), id,
                            [](const Entry& e, FlowId v) { return e.id < v; });
  }

  std::vector<Entry> by_id_;         ///< sorted ascending by flow id
  std::vector<std::uint32_t> free_;  ///< freed slots, reused LIFO
  std::uint32_t slots_ = 0;          ///< slots handed out so far
};

}  // namespace scda::net
