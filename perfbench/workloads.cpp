#include "workloads.h"

#include <stdexcept>

#include "util/units.h"

namespace perfbench {

using scda::core::PlacementPolicy;
using scda::transport::TransportKind;

namespace {

/// The paper's evaluation tree (figure 6): 4 agg x 5 ToR x 8 servers,
/// 64 clients, X = 500 Mbps, K = 3.
Workload paper_tree() {
  Workload w;
  w.arrivals.arrival_rate = 120.0;
  // Paper X-B sizes (mean 500 KB, shape 1.6), truncated at 5 MB so that a
  // few tail draws cannot dominate one seed's host time or latency tail.
  w.arrivals.cap_bytes = 5 * 1000 * 1000;
  w.issue_s = 20.0;
  w.drain_s = 5.0;
  return w;
}

Workload packet_randtcp() {
  Workload w = paper_tree();
  w.cloud.placement = PlacementPolicy::kRandom;
  w.cloud.transport = TransportKind::kTcp;
  return w;
}

Workload fluid_scale() {
  Workload w;
  w.cloud.topology.n_agg = 8;
  w.cloud.topology.tors_per_agg = 8;
  w.cloud.topology.servers_per_tor = 16;
  w.cloud.topology.n_clients = 256;
  w.cloud.topology.base_bps = scda::util::mbps(10000);
  w.cloud.fluid.enabled = true;
  w.cloud.fluid.threshold_bytes = 64 * 1024;
  w.arrivals.arrival_rate = 2000.0;
  w.arrivals.cap_bytes = 20 * 1000 * 1000;
  w.issue_s = 4.0;
  w.drain_s = 4.0;
  return w;
}

Workload churn_storage() {
  Workload w = paper_tree();
  // Elephants advance analytically, mice stay packets (1 MiB split).
  w.cloud.fluid.enabled = true;
  w.cloud.params.replicas = 3;
  w.cloud.params.rebalance_interval_s = 1.0;
  w.cloud.churn.enabled = true;
  // Seed-derived server churn: ~24 failures over the 15 s request window.
  w.cloud.churn.server_mtbf_s = 100.0;
  w.cloud.churn.server_mttr_s = 5.0;
  // Scripted name-node outages (instances 0-3 are shard primaries, 4-7
  // their standbys): a primary failover with resync, a standby outage, and
  // one 1.5 s window with a whole shard down, where requests retry with
  // backoff and the earliest exhaust their attempts. A fixed window puts
  // the same share of requests (~2.5%) through retries for every seed,
  // which keeps the p95 latency below them, in the body of the
  // distribution, rather than on the edge of a seed-dependent tail.
  using Target = scda::sim::ScriptedFailure::Target;
  w.cloud.churn.scripted = {
      {2.0, Target::kNns, 0, 4.0},
      {4.0, Target::kNns, 5, 5.0},
      {6.0, Target::kNns, 1, 1.5},
  };
  w.read_fraction = 0.5;
  w.interactive_fraction = 0.2;
  w.issue_s = 15.0;
  w.drain_s = 5.0;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, double rate_mult, bool tiny) {
  Workload w;
  if (name == "packet-scda") {
    w = paper_tree();
  } else if (name == "fluid-scale") {
    w = fluid_scale();
  } else if (name == "churn-storage") {
    w = churn_storage();
  } else if (name == "packet-randtcp") {
    w = packet_randtcp();
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.arrivals.arrival_rate *= rate_mult;
  if (tiny) {
    scda::net::TopologyConfig& t = w.cloud.topology;
    t.n_agg = 2;
    t.tors_per_agg = 2;
    t.servers_per_tor = 2;
    t.n_clients = 4;
    w.arrivals.arrival_rate = 40.0 * rate_mult;
    w.arrivals.cap_bytes = 2 * 1000 * 1000;
    // Scripted outages shrink with the request window, so they still end
    // before the drain.
    for (scda::sim::ScriptedFailure& f : w.cloud.churn.scripted) {
      f.at_s /= w.issue_s;
      f.duration_s /= w.issue_s;
    }
    w.issue_s = 1.0;
    w.drain_s = 4.0;
    w.session_gap_s = 0.2;
  }
  // Injected faults stop with the requests, so every operation issued has
  // the drain window to finish or fail (the accounting check relies on it).
  if (w.cloud.churn.enabled) w.cloud.churn.horizon_s = w.issue_s;
  return w;
}

}  // namespace perfbench
