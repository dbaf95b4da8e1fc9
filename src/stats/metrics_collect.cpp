#include "stats/metrics_collect.h"

#include <cstdio>

#include "core/churn.h"
#include "core/cloud.h"
#include "obs/observability.h"
#include "sim/simulator.h"

namespace scda::stats {

void collect_run_metrics(obs::MetricsRegistry& reg, const sim::Simulator& sim,
                         core::Cloud& cloud) {
  const double now = sim.now().seconds();

  // --- event engine ---------------------------------------------------------
  const sim::EventQueueStats& q = sim.perf();
  reg.add("sim.events.scheduled", static_cast<double>(q.scheduled));
  reg.add("sim.events.popped", static_cast<double>(q.popped));
  reg.add("sim.events.cancelled", static_cast<double>(q.cancelled));
  reg.add("sim.events.stale_cancels", static_cast<double>(q.stale_cancels));
  reg.add("sim.events.callbacks_inline",
          static_cast<double>(q.callbacks_inline));
  reg.add("sim.events.callbacks_heap", static_cast<double>(q.callbacks_heap));
  reg.set("sim.events.heap_hwm", static_cast<double>(q.heap_hwm));
  reg.set("sim.events.pool_slots",
          static_cast<double>(sim.queue().pool_capacity()));
  reg.set("sim.time_s", now);

  // --- packet path, summed over all links ----------------------------------
  net::Network& net = cloud.topology().net();
  std::uint64_t tx_packets = 0, tx_bytes = 0, dropped_packets = 0,
                dropped_bytes = 0, enqueued = 0, queue_hwm = 0, sjf_selects = 0;
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    const net::Link& l = net.link(net::LinkId::from_index(i));
    const net::LinkStats& ls = l.stats();
    tx_packets += ls.tx_packets;
    tx_bytes += ls.tx_bytes;
    dropped_packets += ls.dropped_packets;
    dropped_bytes += ls.dropped_bytes;
    enqueued += ls.enqueued_packets;
    if (l.queue_perf().pool_hwm > queue_hwm)
      queue_hwm = l.queue_perf().pool_hwm;
    sjf_selects += l.queue_perf().sjf_selects;
    reg.observe("net.link.utilization", l.utilization(now));
  }
  reg.add("net.link.tx_packets", static_cast<double>(tx_packets));
  reg.add("net.link.tx_bytes", static_cast<double>(tx_bytes));
  reg.add("net.link.dropped_packets", static_cast<double>(dropped_packets));
  reg.add("net.link.dropped_bytes", static_cast<double>(dropped_bytes));
  reg.add("net.link.enqueued_packets", static_cast<double>(enqueued));
  reg.set("net.link.queue_hwm", static_cast<double>(queue_hwm));
  reg.set("net.link.count", static_cast<double>(net.link_count()));
  reg.add("net.link.sjf_selects", static_cast<double>(sjf_selects));
  reg.set("net.packet_slots", static_cast<double>(net.packet_slots()));

  // --- transport, summed over all flows' senders ----------------------------
  transport::TransportManager& tm = cloud.transports();
  std::uint64_t data_sent = 0, retransmits = 0, timeouts = 0, fast_rtx = 0,
                completed = 0;
  for (const auto& rec : tm.records()) {
    if (rec->finished()) {
      ++completed;
      reg.observe("transport.fct_s", rec->fct());
    }
    if (const transport::WindowSender* s = tm.sender(rec->id)) {
      const transport::SenderStats& ss = s->stats();
      data_sent += ss.data_packets_sent;
      retransmits += ss.retransmits;
      timeouts += ss.timeouts;
      fast_rtx += ss.fast_retransmits;
      reg.observe("transport.cwnd_bytes", s->cwnd_bytes());
    }
  }
  reg.add("transport.data_packets_sent", static_cast<double>(data_sent));
  reg.add("transport.retransmits", static_cast<double>(retransmits));
  reg.add("transport.timeouts", static_cast<double>(timeouts));
  reg.add("transport.fast_retransmits", static_cast<double>(fast_rtx));
  reg.add("transport.flows_completed", static_cast<double>(completed));
  reg.add("transport.flows_started", static_cast<double>(tm.flow_count()));
  reg.add("transport.delivered_bytes",
          static_cast<double>(tm.total_delivered_bytes()));

  // --- hybrid fluid/packet engine --------------------------------------------
  const transport::FluidStats& fs = tm.fluid().stats();
  reg.add("transport.fluid_flows_started", static_cast<double>(fs.started));
  reg.add("transport.fluid_flows_completed", static_cast<double>(fs.completed));
  reg.add("transport.fluid_epochs", static_cast<double>(fs.epochs));
  reg.add("transport.fluid_rerates", static_cast<double>(fs.rerates));
  reg.add("transport.mode_switches", static_cast<double>(tm.mode_switches()));
  reg.add("transport.flows_aborted", static_cast<double>(tm.aborted_flows()));

  // --- churn / failure injection ---------------------------------------------
  const core::ChurnStats& ch = cloud.churn_stats();
  reg.add("churn.failovers", static_cast<double>(ch.failovers));
  reg.add("churn.aborted_flows", static_cast<double>(ch.aborted_flows));
  reg.add("churn.repair_flows_started",
          static_cast<double>(ch.repair_flows_started));
  reg.add("churn.repair_flows_completed",
          static_cast<double>(ch.repair_flows_completed));
  reg.add("churn.repair_bytes", static_cast<double>(ch.repair_bytes));
  reg.add("churn.repair_retries", static_cast<double>(ch.repair_retries));
  reg.add("churn.objects_lost", static_cast<double>(ch.objects_lost));
  reg.add("churn.sla_violations_during_repair",
          static_cast<double>(ch.sla_violations_during_repair));
  reg.set("churn.under_replicated_seconds", cloud.under_replicated_seconds());
  reg.set("churn.under_replicated_objects",
          static_cast<double>(cloud.under_replicated_objects()));
  reg.set("churn.repair_queue_depth",
          static_cast<double>(cloud.repair_queue_depth()));
  // A run without churn has no injector: its transitions are all zero.
  const core::ChurnInjectorStats is =
      cloud.churn() != nullptr ? cloud.churn()->stats()
                               : core::ChurnInjectorStats{};
  reg.add("churn.events_scheduled", static_cast<double>(is.scheduled));
  reg.add("churn.server_failures", static_cast<double>(is.server_downs));
  reg.add("churn.server_recoveries", static_cast<double>(is.server_ups));
  reg.add("churn.link_failures", static_cast<double>(is.link_downs));
  reg.add("churn.link_recoveries", static_cast<double>(is.link_ups));
  reg.add("churn.nns_failures", static_cast<double>(is.nns_downs));
  reg.add("churn.nns_recoveries", static_cast<double>(is.nns_ups));

  // --- metadata-plane fault tolerance ----------------------------------------
  const core::MetadataStats& ms = cloud.meta_stats();
  reg.add("metadata.requests_timed_out",
          static_cast<double>(ms.requests_timed_out));
  reg.add("metadata.retries", static_cast<double>(ms.retries));
  reg.add("metadata.failovers", static_cast<double>(ms.failovers));
  reg.add("metadata.unavailable", static_cast<double>(ms.unavailable));
  reg.add("metadata.requests_dropped",
          static_cast<double>(ms.requests_dropped));
  reg.add("metadata.mirror_updates", static_cast<double>(ms.mirror_updates));
  reg.add("metadata.resyncs_started", static_cast<double>(ms.resyncs_started));
  reg.add("metadata.resyncs_completed",
          static_cast<double>(ms.resyncs_completed));
  reg.add("metadata.resync_bytes", static_cast<double>(ms.resync_bytes));

  // --- proactive rebalancing -------------------------------------------------
  const core::RebalanceStats& rs = cloud.rebalance_stats();
  reg.add("rebalance.scans", static_cast<double>(rs.scans));
  reg.add("rebalance.flows_started", static_cast<double>(rs.flows_started));
  reg.add("rebalance.flows_completed", static_cast<double>(rs.flows_completed));
  reg.add("rebalance.bytes_moved", static_cast<double>(rs.bytes_moved));
  reg.add("rebalance.skipped", static_cast<double>(rs.skipped));

  // --- control plane (RM/RA round cost) + SLA -------------------------------
  const core::RateAllocator::ControlStats& cs =
      cloud.allocator().control_stats();
  reg.add("core.control.ticks", static_cast<double>(cs.ticks));
  reg.add("core.control.flow_updates", static_cast<double>(cs.flow_updates));
  reg.add("core.control.link_updates", static_cast<double>(cs.link_updates));
  reg.add("core.sla.violations",
          static_cast<double>(cloud.allocator().sla_violations()));
  reg.add("core.sla.boosts",
          static_cast<double>(cloud.sla().boosts_applied()));

  // --- cloud level -----------------------------------------------------------
  reg.set("cloud.contents_stored",
          static_cast<double>(cloud.metadata().contents_stored()));
  reg.add("cloud.failed_reads", static_cast<double>(cloud.failed_reads()));
  reg.add("cloud.failed_writes", static_cast<double>(cloud.failed_writes()));
  reg.add("cloud.migrations",
          static_cast<double>(cloud.migrations_completed()));
  reg.set("cloud.dormant_servers",
          static_cast<double>(cloud.dormant_servers()));
  reg.set("cloud.failed_servers", static_cast<double>(cloud.failed_servers()));
  reg.set("cloud.energy_j", cloud.total_energy_j());
  reg.set("cloud.mean_nns_delay_s", cloud.metadata().mean_delay());
  reg.add("cloud.control_messages",
          static_cast<double>(cloud.control_messages()));
  reg.add("cloud.control_bytes", static_cast<double>(cloud.control_bytes()));

  // --- flight recorder self-accounting ---------------------------------------
  if (const obs::Observability* o = sim.observability()) {
    if (const obs::TraceRecorder* tr = o->tracer()) {
      reg.add("trace.events.recorded", static_cast<double>(tr->recorded()));
      reg.add("trace.events.dropped", static_cast<double>(tr->dropped()));
    }
  }
}

void emit_metrics(std::FILE* out, const obs::MetricsSnapshot& snap) {
  std::fprintf(out, "# metrics: ");
  snap.write_json(out);
  std::fprintf(out, "\n");
}

}  // namespace scda::stats
