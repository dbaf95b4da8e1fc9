#include "net/packet_queue.h"

#include <utility>

namespace scda::net {

void PacketQueue::set_discipline(QueueDiscipline d) {
  if (d == discipline_) return;
  discipline_ = d;
  if (d == QueueDiscipline::kSjf) {
    rebuild_sjf_state();
  } else {
    sjf_order_.clear();  // chains are rebuilt on the next switch to SJF
  }
}

void PacketQueue::push(Packet&& p) {
  const Index n = pool_.acquire(std::move(p));
  PacketPool::Slot& slot = pool_.at(n);
  slot.key = ++arrival_seq_;
  slot.prev = tail_;
  slot.next = kNull;
  slot.flow_next = kNull;
  if (tail_ != kNull) {
    pool_.at(tail_).next = n;
  } else {
    head_ = n;
  }
  tail_ = n;
  ++size_;
  if (size_ > perf_.pool_hwm) perf_.pool_hwm = size_;

  if (discipline_ == QueueDiscipline::kSjf) {
    FlowState& st = flows_[slot.pkt.flow];
    if (st.queued == 0) {
      st.head = st.tail = n;
      st.queued = 1;
      // The flow (re)joins the index keyed by its new oldest packet.
      index_insert(slot.pkt.flow, st);
    } else {
      pool_.at(st.tail).flow_next = n;
      st.tail = n;
      ++st.queued;
    }
  }
}

PacketQueue::Index PacketQueue::select_next() {
  assert(size_ > 0);
  if (discipline_ != QueueDiscipline::kSjf || size_ == 1) return head_;
  assert(!sjf_order_.empty());
  ++perf_.sjf_selects;
  const FlowId flow = sjf_order_.begin()->flow;
  const auto it = flows_.find(flow);
  assert(it != flows_.end() && it->second.head != kNull);
  return it->second.head;
}

void PacketQueue::detach(Index n) {
  const PacketPool::Slot& slot = pool_.at(n);
  if (discipline_ == QueueDiscipline::kSjf) {
    const auto it = flows_.find(slot.pkt.flow);
    assert(it != flows_.end());
    FlowState& st = it->second;
    // Service is always the flow's oldest packet, so unlinking the chain
    // head is O(1).
    assert(st.head == n);
    index_erase(slot.pkt.flow, st);
    st.head = slot.flow_next;
    if (st.head == kNull) st.tail = kNull;
    --st.queued;
    if (st.queued > 0) index_insert(slot.pkt.flow, st);
  }
  unlink_global(n);
  --size_;
}

void PacketQueue::note_transmitted(FlowId flow) {
  if (discipline_ != QueueDiscipline::kSjf) return;
  FlowState& st = flows_[flow];
  if (st.queued > 0) index_erase(flow, st);
  ++st.tx_count;
  if (st.queued > 0) index_insert(flow, st);
}

void PacketQueue::unlink_global(Index n) noexcept {
  const PacketPool::Slot& slot = pool_.at(n);
  if (slot.prev != kNull) {
    pool_.at(slot.prev).next = slot.next;
  } else {
    head_ = slot.next;
  }
  if (slot.next != kNull) {
    pool_.at(slot.next).prev = slot.prev;
  } else {
    tail_ = slot.prev;
  }
}

void PacketQueue::index_insert(FlowId flow, const FlowState& st) {
  assert(st.queued > 0 || st.head != kNull);
  sjf_order_.insert(SjfKey{st.tx_count, pool_.at(st.head).key, flow});
}

void PacketQueue::index_erase(FlowId flow, const FlowState& st) {
  const auto it =
      sjf_order_.find(SjfKey{st.tx_count, pool_.at(st.head).key, flow});
  assert(it != sjf_order_.end());
  sjf_order_.erase(it);
}

void PacketQueue::rebuild_sjf_state() {
  sjf_order_.clear();
  for (auto& [flow, st] : flows_) {
    st.head = st.tail = kNull;
    st.queued = 0;
  }
  // Walk the arrival-order list so per-flow chains stay FIFO.
  for (Index n = head_; n != kNull; n = pool_.at(n).next) {
    PacketPool::Slot& slot = pool_.at(n);
    slot.flow_next = kNull;
    FlowState& st = flows_[slot.pkt.flow];
    if (st.queued == 0) {
      st.head = st.tail = n;
      st.queued = 1;
    } else {
      pool_.at(st.tail).flow_next = n;
      st.tail = n;
      ++st.queued;
    }
  }
  for (const auto& [flow, st] : flows_) {
    if (st.queued > 0) index_insert(flow, st);
  }
}

}  // namespace scda::net
