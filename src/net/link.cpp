#include "net/link.h"

#include <utility>

#include "obs/observability.h"
#include "util/log.h"

namespace scda::net {

void Link::trace_drop(const Packet& p, const char* reason) {
  if (obs::TraceRecorder* tr = obs::tracer_of(sim_)) {
    tr->instant(sim_.now(), "net", reason, obs::kTrackNet,
                {{"link", static_cast<double>(id_.value())},
                 {"flow", static_cast<double>(p.flow.value())},
                 {"seq", static_cast<double>(p.seq)},
                 {"queue_bytes", static_cast<double>(queued_bytes_)}});
  }
}

bool Link::enqueue(Packet&& p) {
  if (!up_) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += static_cast<std::uint64_t>(p.size_bytes);
    trace_drop(p, "drop_link_down");
    return false;
  }
  interval_arrived_bytes_ += p.size_bytes;
  if (loss_probability_ > 0 && loss_rng_ != nullptr &&
      loss_rng_->bernoulli(loss_probability_)) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += static_cast<std::uint64_t>(p.size_bytes);
    trace_drop(p, "drop_error_model");
    return false;
  }
  if (queued_bytes_ + p.size_bytes > queue_limit_bytes_) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += static_cast<std::uint64_t>(p.size_bytes);
    SCDA_LOG_TRACE("link %d drop flow=%lld seq=%lld q=%lld", id_.value(),
                   static_cast<long long>(p.flow.value()),
                   static_cast<long long>(p.seq),
                   static_cast<long long>(queued_bytes_));
    trace_drop(p, "drop_tail");
    return false;
  }
  queued_bytes_ += p.size_bytes;
  ++stats_.enqueued_packets;
  queue_.push(std::move(p));
  if (!transmitting_) start_transmission();
  return true;
}

void Link::start_transmission() {
  transmitting_ = true;
  // SJF selection (section IV-B) commits to the packet now; it is taken
  // out of the queue when the transmission completes.
  cur_slot_ = queue_.select_next();
  const Packet& head = queue_.packet(cur_slot_);
  // Serialization time rounds to the nearest nanosecond once, here; from
  // this point on every timestamp derived from it is exact integer time
  // (ByteCount / BitRate is the same bytes * 8.0 / bps expression the
  // raw-double code wrote by hand).
  const sim::Time tx_time = sim::ByteCount{head.size_bytes} / capacity_;
  sim_.post_in(tx_time, [this] { on_tx_complete(); });
}

void Link::on_tx_complete() {
  const PacketPool::Index n = cur_slot_;
  cur_slot_ = PacketPool::kNull;
  queue_.detach(n);
  PacketPool::Slot& slot = pool_.at(n);
  queued_bytes_ -= slot.pkt.size_bytes;
  ++stats_.tx_packets;
  stats_.tx_bytes += static_cast<std::uint64_t>(slot.pkt.size_bytes);
  queue_.note_transmitted(slot.pkt.flow);  // SJF Cnt_j; no-op for FIFO

  // Propagation: relink the slot onto the in-flight FIFO; the single armed
  // delivery timer walks it head-by-head (constant delay => FIFO). The
  // stored deadline and the armed timer are the same exact integer sum,
  // so deliver_head always finds the head due at or after now.
  slot.key = static_cast<std::uint64_t>((sim_.now() + prop_delay_).nanos());
  slot.next = PacketPool::kNull;
  if (inflight_tail_ != PacketPool::kNull) {
    pool_.at(inflight_tail_).next = n;
  } else {
    inflight_head_ = n;
    sim_.post_in(prop_delay_, [this] { deliver_head(); });
  }
  inflight_tail_ = n;

  if (!queue_.empty()) {
    start_transmission();
  } else {
    transmitting_ = false;
  }
}

void Link::deliver_head() {
  const PacketPool::Index n = inflight_head_;
  inflight_head_ = pool_.at(n).next;
  // Free the slot before deliver_ runs: the next hop's enqueue may grow
  // the pool.
  Packet p = pool_.take(n);
  if (inflight_head_ != PacketPool::kNull) {
    const auto due = sim::Time::from_nanos(
        static_cast<sim::Time::rep_type>(pool_.at(inflight_head_).key));
    sim_.post_in(delivery_delay(due, sim_.now()), [this] { deliver_head(); });
  } else {
    inflight_tail_ = PacketPool::kNull;
  }
  if (deliver_) deliver_(std::move(p));
}

}  // namespace scda::net
