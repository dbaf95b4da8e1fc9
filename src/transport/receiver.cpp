#include "transport/receiver.h"

namespace scda::transport {

bool Receiver::handle(net::Packet&& p) {
  if (p.type != net::PacketType::kData) return false;

  const std::int64_t before = next_expected_;
  merge(p.seq, p.seq_end());
  if (delivered_counter_) *delivered_counter_ += next_expected_ - before;
  // Duplicate and out-of-order segments are acked too: the sender needs
  // the duplicate ACKs as its loss signal.
  send_ack(p.ts);

  if (completed_ || !complete()) return false;
  completed_ = true;
  rec_.finish_time = net_.sim().now();
  return true;
}

void Receiver::send_ack(sim::SimTime echo_ts) {
  const sim::SimTime now = net_.sim().now();
  net::Packet ack = net::make_ack(rec_.id, /*src=*/rec_.dst, /*dst=*/rec_.src,
                                  next_expected_, now, echo_ts, rcvw_bytes_);
  net_.send(std::move(ack));
}

void Receiver::merge(std::int64_t lo, std::int64_t hi) {
  if (hi <= lo) return;
  if (lo <= next_expected_) {
    if (hi > next_expected_) next_expected_ = hi;
  } else {
    // Insert/merge into the out-of-order interval map.
    auto it = ooo_.lower_bound(lo);
    if (it != ooo_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= lo) {
        lo = prev->first;
        hi = std::max(hi, prev->second);
        ooo_.erase(prev);
      }
    }
    while (it != ooo_.end() && it->first <= hi) {
      hi = std::max(hi, it->second);
      it = ooo_.erase(it);
    }
    ooo_[lo] = hi;
  }
  // Drain any ranges now contiguous with the cumulative point.
  auto it = ooo_.begin();
  while (it != ooo_.end() && it->first <= next_expected_) {
    next_expected_ = std::max(next_expected_, it->second);
    it = ooo_.erase(it);
  }
}

}  // namespace scda::transport
