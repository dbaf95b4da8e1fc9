#include "transport/transport_manager.h"

#include "obs/observability.h"

namespace scda::transport {

void TransportManager::demux(net::Packet&& p) {
  Endpoints* e = endpoints_of(p.flow);
  if (e == nullptr || records_[p.flow.index()]->aborted) return;
  if (p.type == net::PacketType::kAck) {
    if (e->sender) e->sender->handle(std::move(p));
    return;
  }
  // DATA a node sends to itself arrives inside its sender's own send, so
  // its receiver never takes it: the ACK would re-enter the sender before
  // the segment is accounted. Such a flow never completes.
  if (e->receiver && p.src != p.dst && e->receiver->handle(std::move(p)))
    finish_flow(*records_[p.flow.index()]);
}

double TransportManager::base_rtt(net::NodeId a, net::NodeId b) const {
  double one_way = 0;
  for (const net::LinkId lid : net_.path(a, b))
    one_way += net_.link(lid).prop_delay_s();
  return 2.0 * one_way;
}

FlowRecord& TransportManager::new_record(net::NodeId src, net::NodeId dst,
                                         std::int64_t size_bytes,
                                         TransportKind kind,
                                         ContentClass content) {
  auto rec = std::make_unique<FlowRecord>();
  rec->id = net::FlowId::from_index(records_.size());
  rec->src = src;
  rec->dst = dst;
  rec->size_bytes = size_bytes;
  rec->start_time = net_.sim().now();
  rec->transport = kind;
  rec->content = content;
  records_.push_back(std::move(rec));
  endpoints_.emplace_back();
  FlowRecord& r = *records_.back();
  if (obs::TraceRecorder* tr = obs::tracer_of(net_.sim())) {
    tr->async_begin(r.start_time, "flow",
                    kind == TransportKind::kTcp ? "tcp_flow" : "scda_flow",
                    static_cast<std::uint64_t>(r.id.value()),
                    {{"src", static_cast<double>(r.src.value())},
                     {"dst", static_cast<double>(r.dst.value())},
                     {"bytes", static_cast<double>(r.size_bytes)}});
  }
  return r;
}

void TransportManager::finish_flow(const FlowRecord& r) {
  if (obs::TraceRecorder* tr = obs::tracer_of(net_.sim())) {
    tr->async_end(r.finish_time, "flow",
                  r.transport == TransportKind::kTcp ? "tcp_flow"
                                                     : "scda_flow",
                  static_cast<std::uint64_t>(r.id.value()),
                  {{"fct_s", r.fct()},
                   {"bytes", static_cast<double>(r.size_bytes)}});
  }
  if (on_complete_) on_complete_(r);
}

bool TransportManager::abort_flow(net::FlowId id) {
  FlowRecord& rec = *records_.at(id.index());
  if (rec.finished() || rec.aborted) return false;
  rec.aborted = true;
  ++aborted_flows_;

  // A packet flow's agents stay alive, but its sender stops emitting, and
  // demux() drops the packets still in flight.
  if (rec.fluid) {
    fluid_.abort(id);
  } else if (WindowSender* s = sender(id)) {
    s->stop();
  }

  if (obs::TraceRecorder* tr = obs::tracer_of(net_.sim())) {
    tr->async_end(net_.sim().now(), "flow",
                  rec.transport == TransportKind::kTcp ? "tcp_flow"
                                                       : "scda_flow",
                  static_cast<std::uint64_t>(rec.id.value()),
                  {{"aborted", 1.0},
                   {"bytes", static_cast<double>(rec.size_bytes)}});
  }
  return true;
}

net::FlowId TransportManager::start_tcp_flow(net::NodeId src, net::NodeId dst,
                                             std::int64_t size_bytes,
                                             ContentClass content) {
  FlowRecord& rec = new_record(src, dst, size_bytes, TransportKind::kTcp,
                               content);
  const double rtt = base_rtt(src, dst);

  Endpoints& e = endpoints_.back();
  e.receiver = std::make_unique<Receiver>(net_, rec, kTcpRcvwBytes);
  e.receiver->set_delivered_counter(&total_delivered_bytes_);
  e.sender = std::make_unique<TcpSender>(net_, rec, rtt);
  e.sender->start();
  return rec.id;
}

ScdaFlowHandles TransportManager::start_scda_flow(
    net::NodeId src, net::NodeId dst, std::int64_t size_bytes,
    sim::BitRate initial_rate, sim::BitRate initial_rcvw_rate,
    ContentClass content, double priority) {
  FlowRecord& rec = new_record(src, dst, size_bytes, TransportKind::kScda,
                               content);
  rec.priority = priority;

  // Mode decision (docs/fluid_engine.md): elephants at or above the
  // threshold advance analytically in the fluid engine; mice keep packet
  // fidelity (counted as mode switches — the hybrid actually hybridized).
  if (fluid_config_.enabled) {
    if (size_bytes >= fluid_config_.threshold_bytes) {
      rec.fluid = true;
      fluid_.start(rec.id, size_bytes, initial_rate, net_.path(src, dst));
      ScdaFlowHandles out;
      out.id = rec.id;
      out.fluid = true;
      return out;
    }
    ++mode_switches_;
  }

  const double rtt = base_rtt(src, dst);

  // rcvw = downlink rate x RTT (paper Fig. 3, step 8): window-sizing
  // boundary, unwrapped once to keep the rate*rtt/8 expression exact.
  const auto rcvw =
      static_cast<std::int64_t>(initial_rcvw_rate.bps() * rtt / 8.0);
  auto recv = std::make_unique<Receiver>(net_, rec, rcvw);
  recv->set_delivered_counter(&total_delivered_bytes_);
  auto send = std::make_unique<ScdaSender>(net_, rec, rtt, initial_rate);

  ScdaFlowHandles out;
  out.id = rec.id;
  out.sender = send.get();
  out.receiver = recv.get();

  Endpoints& e = endpoints_.back();
  e.receiver = std::move(recv);
  e.sender = std::move(send);
  out.sender->start();
  return out;
}

}  // namespace scda::transport
