#include "stats/perf.h"

#include <cinttypes>

namespace scda::stats {

CorePerf collect_core_perf(const sim::Simulator& sim) {
  const sim::EventQueueStats& q = sim.perf();
  CorePerf p;
  p.events_scheduled = q.scheduled;
  p.events_popped = q.popped;
  p.events_cancelled = q.cancelled;
  p.stale_cancels = q.stale_cancels;
  p.heap_hwm = q.heap_hwm;
  p.event_pool_slots = sim.queue().pool_capacity();
  p.callbacks_inline = q.callbacks_inline;
  p.callbacks_heap = q.callbacks_heap;
  return p;
}

CorePerf collect_core_perf(const sim::Simulator& sim,
                           const net::Network& net) {
  CorePerf p = collect_core_perf(sim);
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    const net::Link& l = net.link(net::LinkId::from_index(i));
    const auto& qp = l.queue_perf();
    p.link_pool_slots += qp.pool_hwm;
    if (qp.pool_hwm > p.link_queue_hwm) p.link_queue_hwm = qp.pool_hwm;
    p.sjf_selects += qp.sjf_selects;
  }
  return p;
}

void emit_core_perf(std::FILE* out, const CorePerf& p) {
  std::fprintf(
      out,
      "# core-perf: {\"events_scheduled\":%" PRIu64 ",\"events_popped\":%"
      PRIu64 ",\"events_cancelled\":%" PRIu64 ",\"stale_cancels\":%" PRIu64
      ",\"heap_hwm\":%" PRIu64 ",\"event_pool_slots\":%" PRIu64
      ",\"callbacks_inline\":%" PRIu64 ",\"callbacks_heap\":%" PRIu64
      ",\"link_pool_slots\":%" PRIu64 ",\"link_queue_hwm\":%" PRIu64
      ",\"sjf_selects\":%" PRIu64 "}\n",
      p.events_scheduled, p.events_popped, p.events_cancelled, p.stale_cancels,
      p.heap_hwm, p.event_pool_slots, p.callbacks_inline, p.callbacks_heap,
      p.link_pool_slots, p.link_queue_hwm, p.sjf_selects);
}

}  // namespace scda::stats
