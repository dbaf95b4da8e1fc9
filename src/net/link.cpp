#include "net/link.h"

#include <utility>

#include "obs/observability.h"
#include "util/log.h"

namespace scda::net {

Link::Link(Link&& o) noexcept
    : capacity_(o.capacity_),
      queued_bytes_(o.queued_bytes_),
      interval_arrived_bytes_(o.interval_arrived_bytes_),
      tx_bytes_(o.tx_bytes_),
      fluid_bytes_(o.fluid_bytes_),
      prop_delay_(o.prop_delay_),
      queue_limit_bytes_(o.queue_limit_bytes_),
      fluid_flows_(o.fluid_flows_),
      up_(o.up_),
      id_(o.id_),
      from_(o.from_),
      to_(o.to_),
      sim_(o.sim_),
      pool_(o.pool_),
      hook_(o.hook_),
      hook_ctx_(o.hook_ctx_),
      port_(std::move(o.port_)),
      cold_(std::move(o.cold_)) {
  assert((!port_ || (!port_->transmitting &&
                     port_->inflight_head == PacketPool::kNull)) &&
         "Link moved with a packet on the wire");
}

Link::Port& Link::ensure_port() {
  if (!port_) port_ = std::make_unique<Port>(pool_);
  return *port_;
}

Link::Cold& Link::ensure_cold() {
  if (!cold_) cold_ = std::make_unique<Cold>();
  return *cold_;
}

void Link::set_deliver(DeliverFn fn) {
  Cold& c = ensure_cold();
  c.deliver = std::move(fn);
  hook_ = [](void* ctx, Packet&& p, NodeId) {
    const DeliverFn& f = static_cast<Cold*>(ctx)->deliver;
    if (f) f(std::move(p));
  };
  hook_ctx_ = &c;
}

void Link::set_discipline(QueueDiscipline d) {
  // A link without a port serves FIFO already.
  if (port_ || d != QueueDiscipline::kFifo)
    ensure_port().queue.set_discipline(d);
}

void Link::set_error_model(double p, sim::Rng* rng) {
  Cold& c = ensure_cold();
  c.loss_probability = p;
  c.loss_rng = rng;
}

void Link::drop(Port& port, const Packet& p, const char* reason) {
  ++port.dropped_packets;
  port.dropped_bytes += static_cast<std::uint64_t>(p.size_bytes);
  if (obs::TraceRecorder* tr = obs::tracer_of(sim_)) {
    tr->instant(sim_.now(), "net", reason, obs::kTrackNet,
                {{"link", static_cast<double>(id_.value())},
                 {"flow", static_cast<double>(p.flow.value())},
                 {"seq", static_cast<double>(p.seq)},
                 {"queue_bytes", static_cast<double>(queued_bytes_)}});
  }
}

bool Link::enqueue(Packet&& p) {
  Port& port = ensure_port();
  if (!up_) {
    drop(port, p, "drop_link_down");
    return false;
  }
  interval_arrived_bytes_ += p.size_bytes;
  if (cold_ && cold_->loss_probability > 0 && cold_->loss_rng != nullptr &&
      cold_->loss_rng->bernoulli(cold_->loss_probability)) {
    drop(port, p, "drop_error_model");
    return false;
  }
  if (queued_bytes_ + p.size_bytes > queue_limit_bytes_) {
    SCDA_LOG_TRACE("link %d drop flow=%lld seq=%lld q=%lld", id_.value(),
                   static_cast<long long>(p.flow.value()),
                   static_cast<long long>(p.seq),
                   static_cast<long long>(queued_bytes_));
    drop(port, p, "drop_tail");
    return false;
  }
  queued_bytes_ += p.size_bytes;
  ++port.enqueued_packets;
  port.queue.push(std::move(p));
  if (!port.transmitting) start_transmission(port);
  return true;
}

void Link::start_transmission(Port& port) {
  port.transmitting = true;
  // SJF selection (section IV-B) commits to the packet now; it is taken
  // out of the queue when the transmission completes.
  port.cur_slot = port.queue.select_next();
  const Packet& head = port.queue.packet(port.cur_slot);
  // Serialization time rounds to the nearest nanosecond once, here; from
  // this point on every timestamp derived from it is exact integer time
  // (ByteCount / BitRate is the same bytes * 8.0 / bps expression the
  // raw-double code wrote by hand).
  const sim::Time tx_time = sim::ByteCount{head.size_bytes} / capacity_;
  sim_.post_in(tx_time, [this] { on_tx_complete(); });
}

void Link::on_tx_complete() {
  Port& port = *port_;
  const PacketPool::Index n = port.cur_slot;
  port.cur_slot = PacketPool::kNull;
  port.queue.detach(n);
  PacketPool::Slot& slot = pool_.at(n);
  queued_bytes_ -= slot.pkt.size_bytes;
  ++port.tx_packets;
  tx_bytes_ += static_cast<std::uint64_t>(slot.pkt.size_bytes);
  port.queue.note_transmitted(slot.pkt.flow);  // SJF Cnt_j; no-op for FIFO

  // Propagation: relink the slot onto the in-flight FIFO; the single armed
  // delivery timer walks it head-by-head (constant delay => FIFO). The
  // stored deadline and the armed timer are the same exact integer sum,
  // so deliver_head always finds the head due at or after now.
  slot.key = static_cast<std::uint64_t>((sim_.now() + prop_delay_).nanos());
  slot.next = PacketPool::kNull;
  if (port.inflight_tail != PacketPool::kNull) {
    pool_.at(port.inflight_tail).next = n;
  } else {
    port.inflight_head = n;
    sim_.post_in(prop_delay_, [this] { deliver_head(); });
  }
  port.inflight_tail = n;

  if (!port.queue.empty()) {
    start_transmission(port);
  } else {
    port.transmitting = false;
  }
}

void Link::deliver_head() {
  Port& port = *port_;
  const PacketPool::Index n = port.inflight_head;
  port.inflight_head = pool_.at(n).next;
  // Free the slot before delivery runs: the next hop's enqueue may grow
  // the pool.
  Packet p = pool_.take(n);
  if (port.inflight_head != PacketPool::kNull) {
    const auto due = sim::Time::from_nanos(
        static_cast<sim::Time::rep_type>(pool_.at(port.inflight_head).key));
    sim_.post_in(delivery_delay(due, sim_.now()), [this] { deliver_head(); });
  } else {
    port.inflight_tail = PacketPool::kNull;
  }
  if (hook_) hook_(hook_ctx_, std::move(p), to_);
}

}  // namespace scda::net
