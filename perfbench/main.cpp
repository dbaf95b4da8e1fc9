// scda_perfbench — end-to-end Cloud benchmark driver (README.md).
//
// Builds a core::Cloud for the named workload, drives it open-loop through
// its public request API and repeats the run until --seconds of host time
// have passed. Every repetition replays the same seed; they must agree on
// the checksum. With --trace 1 untraced and stepped (traced) repetitions
// alternate, and the per-layer host-time breakdown is reported.
//
//   scda_perfbench --workload packet-scda --seed 1 --seconds 25 --trace 0
//
// Output: one `metric NAME VALUE UNIT` line per metric, a `checksum` line,
// an `accounting` line and a final `result` line. perfbench/run.py turns
// that into the benchmark's JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "core/cloud.h"
#include "sim/failure_schedule.h"
#include "sim/simulator.h"
#include "util/args.h"
#include "workloads.h"

using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Nearest-rank percentile of sorted nanosecond samples, in seconds.
double percentile_s(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  const std::size_t i = std::clamp<std::size_t>(rank, 1, sorted.size()) - 1;
  return static_cast<double>(sorted[i]) * 1e-9;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Exact (simulated) outcome of one repetition; identical across
/// repetitions of one seed.
struct SimOutcome {
  std::uint64_t checksum = 0;
  std::uint64_t events = 0;
  Accounting acct;
  std::uint64_t lost = 0;
  std::string acct_error;
  double p50_s = 0, p95_s = 0, p99_s = 0, afct_s = 0;
  /// Exact per-layer counts (traced repetitions only).
  std::vector<Metric> counts;
};

struct Rep {
  bool traced = false;
  double wall_s = 0;  ///< the whole repetition, set-up samples included
  std::vector<double> setup_s;  ///< Cloud construction samples
  double loop_s = 0;
  /// Traced loop time outside every step class and client call.
  double uncovered_s = 0;
  StepProfile prof;
  SimOutcome out;
};

/// Per-layer counts read from the Cloud's public accessors after a run.
std::vector<Metric> layer_counts(scda::core::Cloud& cloud) {
  const scda::sim::Simulator& sim = cloud.sim();
  const scda::sim::EventQueueStats& q = sim.perf();
  std::vector<Metric> m;
  m.push_back({"sim.events", static_cast<double>(q.popped), "count"});
  m.push_back({"sim.heap_hwm", static_cast<double>(q.heap_hwm), "count"});
  m.push_back({"sim.cancel_ratio",
               ratio(static_cast<double>(q.cancelled),
                     static_cast<double>(q.scheduled)),
               "ratio"});

  scda::net::Network& net = cloud.topology().net();
  std::uint64_t tx = 0, drops = 0, hwm = 0;
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    const scda::net::Link& l = net.link(scda::net::LinkId::from_index(i));
    tx += l.stats().tx_packets;
    drops += l.stats().dropped_packets;
    hwm = std::max<std::uint64_t>(hwm, l.queue_perf().pool_hwm);
  }
  m.push_back({"net.tx_packets", static_cast<double>(tx), "count"});
  m.push_back({"net.drop_ratio",
               ratio(static_cast<double>(drops),
                     static_cast<double>(tx + drops)),
               "ratio"});
  m.push_back({"net.queue_hwm", static_cast<double>(hwm), "packets"});

  scda::transport::TransportManager& tm = cloud.transports();
  std::uint64_t sent = 0, rtx = 0, rto = 0, fluid = 0;
  for (const auto& rec : tm.records()) {
    if (rec->fluid) ++fluid;
    if (const scda::transport::WindowSender* s = tm.sender(rec->id)) {
      sent += s->stats().data_packets_sent;
      rtx += s->stats().retransmits;
      rto += s->stats().timeouts;
    }
  }
  const auto flows = static_cast<double>(tm.flow_count());
  const scda::transport::FluidStats& fs = tm.fluid().stats();
  m.push_back({"net.fluid_share", ratio(static_cast<double>(fluid), flows),
               "ratio"});
  m.push_back({"transport.flows", flows, "count"});
  m.push_back({"transport.retransmit_ratio",
               ratio(static_cast<double>(rtx), static_cast<double>(sent)),
               "ratio"});
  m.push_back({"transport.timeouts", static_cast<double>(rto), "count"});
  m.push_back({"transport.fluid_rerates", static_cast<double>(fs.rerates),
               "count"});
  m.push_back({"transport.fluid_rerates_per_flow",
               ratio(static_cast<double>(fs.rerates),
                     static_cast<double>(fs.started)),
               "ratio"});

  m.push_back({"core.alloc.flow_updates",
               static_cast<double>(
                   cloud.allocator().control_stats().flow_updates),
               "count"});
  m.push_back({"core.sla.violations",
               static_cast<double>(cloud.allocator().sla_violations()),
               "count"});
  m.push_back({"core.ctrl_messages",
               static_cast<double>(cloud.control_messages()), "count"});

  double delay_sum = 0;
  std::uint64_t served = 0;
  for (std::size_t i = 0; i < cloud.nns_instance_count(); ++i) {
    const scda::core::NameNode& nn = cloud.nns_instance(i);
    delay_sum += nn.mean_delay() * static_cast<double>(nn.served());
    served += nn.served();
  }
  const scda::core::MetadataStats& ms = cloud.meta_stats();
  m.push_back({"core.meta.nns_delay_s",
               ratio(delay_sum, static_cast<double>(served)), "sim_s"});
  m.push_back({"core.meta.retries", static_cast<double>(ms.retries),
               "count"});
  m.push_back({"core.meta.failovers", static_cast<double>(ms.failovers),
               "count"});
  m.push_back({"core.meta.dropped", static_cast<double>(ms.requests_dropped),
               "count"});

  const scda::core::ChurnStats& ch = cloud.churn_stats();
  m.push_back({"core.churn.repair_flows",
               static_cast<double>(ch.repair_flows_started), "count"});
  m.push_back({"core.churn.repair_retry_ratio",
               ratio(static_cast<double>(ch.repair_retries),
                     static_cast<double>(ch.repair_flows_started)),
               "ratio"});
  m.push_back({"core.churn.objects_lost", static_cast<double>(ch.objects_lost),
               "count"});
  m.push_back({"core.churn.under_replicated_s",
               cloud.under_replicated_seconds(), "object-s"});
  m.push_back({"core.state.flow_records",
               static_cast<double>(tm.records().size()), "count"});
  return m;
}

/// Time one Cloud construction: topology, routes, hierarchy, NNS and
/// block servers, before any event runs.
std::unique_ptr<scda::core::Cloud> build_cloud(scda::sim::Simulator& sim,
                                               const Workload& w,
                                               std::vector<double>& samples) {
  const auto t0 = Clock::now();
  auto cloud = std::make_unique<scda::core::Cloud>(sim, w.cloud);
  samples.push_back(since(t0));
  return cloud;
}

Rep run_rep(const Workload& w, std::uint64_t seed, bool traced) {
  const auto start = Clock::now();
  Rep r;
  r.traced = traced;
  // The repo's splitmix64 seed mixer derives independent streams.
  const std::uint64_t sim_seed = scda::sim::churn_mix(seed ^ 0x51u);
  if (!traced) {
    // Set-up samples first, each torn down before the next: a single
    // construction takes milliseconds, so one sample per repetition would
    // be mostly timer and cache noise.
    double spent = 0;
    while (r.setup_s.size() < 20 && (r.setup_s.size() < 3 || spent < 0.05)) {
      scda::sim::Simulator fresh(sim_seed);
      build_cloud(fresh, w, r.setup_s);
      spent += r.setup_s.back();
    }
  }
  scda::sim::Simulator sim(sim_seed);
  auto cloud = build_cloud(sim, w, r.setup_s);

  Client client(*cloud, w, scda::sim::churn_mix(seed ^ 0xc1u),
                traced ? &r.prof : nullptr);
  const auto t1 = Clock::now();
  client.run();
  r.loop_s = since(t1);

  const auto t2 = Clock::now();
  SimOutcome& o = r.out;
  o.checksum = client.checksum();
  o.events = sim.perf().popped;
  o.acct = client.accounting();
  o.lost = client.lost();
  o.acct_error = client.check_accounting();
  std::vector<std::int64_t> lat = client.latencies_ns();
  std::sort(lat.begin(), lat.end());
  o.p50_s = percentile_s(lat, 0.50);
  o.p95_s = percentile_s(lat, 0.95);
  o.p99_s = percentile_s(lat, 0.99);
  o.afct_s = ratio(client.fct_sum_s(), static_cast<double>(lat.size()));
  if (traced) {
    double covered = r.prof.request_s + r.prof.next_s + r.prof.collect_s;
    for (const double s : r.prof.class_s) covered += s;
    r.uncovered_s = r.loop_s - covered;
    o.counts = layer_counts(*cloud);
    r.prof.collect_s += since(t2);
  }
  r.wall_s = since(start);
  return r;
}

void print_metric(const Metric& m) {
  std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const scda::util::ArgParser args(argc, argv);
  if (args.has("help")) {
    std::puts(
        "scda_perfbench — end-to-end Cloud benchmark\n"
        "\n"
        "  --workload NAME   packet-scda|fluid-scale|churn-storage|"
        "packet-randtcp\n"
        "  --seed N          workload seed (default 1)\n"
        "  --seconds S       host seconds to keep repeating (default 25)\n"
        "  --trace 0|1       alternate stepped, layer-attributed runs\n"
        "  --rate-mult M     scale the offered request rate (default 1)\n"
        "  --tiny            2x2x2 tree, one simulated second of requests\n"
        "  --min-reps N      repetitions at least, one of each kind with\n"
        "                    --trace (default 3)\n");
    return 0;
  }
  try {
    const std::string name = args.get("workload", "packet-scda");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const double seconds = args.get_double("seconds", 25.0);
    const bool trace = args.get_bool("trace", false);
    const auto min_reps = args.get_int("min-reps", 3);
    const Workload w = make_workload(name, args.get_double("rate-mult", 1.0),
                                     args.has("tiny"));
    std::printf("# workload %s seed %" PRIu64 " servers %d trace %d\n",
                name.c_str(), seed, w.cloud.topology.n_servers(),
                trace ? 1 : 0);

    // Repeat within the time budget: start another repetition only if one
    // like the last fits. With --trace, untraced and traced repetitions
    // alternate so both see the same machine state.
    std::vector<Rep> reps;
    std::int64_t untraced = 0, traced = 0;
    double last_wall[2] = {0, 0};
    const auto start = Clock::now();
    for (;;) {
      const bool do_trace = trace && traced < untraced;
      const bool enough = trace ? untraced > 0 && traced > 0 &&
                                      untraced + traced >= min_reps
                                : untraced >= min_reps;
      if (enough && since(start) + last_wall[do_trace] > seconds) break;
      reps.push_back(run_rep(w, seed, do_trace));
      ++(do_trace ? traced : untraced);
      const Rep& r = reps.back();
      last_wall[do_trace] = r.wall_s;
      std::printf("# rep %zu traced %d setup_s %.6f loop_s %.6f checksum "
                  "%016" PRIx64 "\n",
                  reps.size(), do_trace ? 1 : 0, r.setup_s.back(), r.loop_s,
                  r.out.checksum);
    }

    // Correctness: every repetition replays the same history, and the
    // client-operation accounting balances against the Cloud's counters.
    const SimOutcome& o = reps.front().out;
    std::string error = o.acct_error;
    for (const Rep& r : reps)
      if (r.out.checksum != o.checksum)
        error += std::string(r.traced ? "traced" : "untraced") +
                 " repetition checksum differs; ";
    if (o.acct.completed == 0) error += "no operation completed; ";

    // Host times are the fastest of their samples: the work is identical,
    // so the spread between samples is interference from the host, and the
    // minimum is the least disturbed measurement.
    const auto fastest = [&reps](bool traced) {
      const Rep* best = nullptr;
      for (const Rep& r : reps)
        if (r.traced == traced && (best == nullptr || r.loop_s < best->loop_s))
          best = &r;
      return best;
    };
    const Rep& plain = *fastest(false);
    std::vector<double> setups;
    for (const Rep& r : reps)
      if (!r.traced)
        setups.insert(setups.end(), r.setup_s.begin(), r.setup_s.end());
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    const Accounting& a = o.acct;
    const std::vector<Metric> e2e = {
        {"setup_s", *std::min_element(setups.begin(), setups.end()), "s"},
        {"ops_per_s", ratio(static_cast<double>(a.completed), plain.loop_s),
         "ops/s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"op_fail_ratio",
         ratio(static_cast<double>(a.issued - a.completed),
               static_cast<double>(a.issued)),
         "ratio"},
        {"sim_op_p50_s", o.p50_s, "sim_s"},
        {"ops_completed", static_cast<double>(a.completed), "count"},
        {"sim_op_p95_s", o.p95_s, "sim_s"},
        {"sim_op_p99_s", o.p99_s, "sim_s"},
        {"sim_afct_s", o.afct_s, "sim_s"},
    };
    for (const Metric& m : e2e) print_metric(m);

    if (trace) {
      // The layer breakdown of one repetition, so that it adds up to that
      // repetition's loop time.
      const Rep& tr = *fastest(true);
      const StepProfile& p = tr.prof;
      const auto steps = [&p](StepProfile::Class c) {
        return static_cast<double>(p.class_steps[c]);
      };
      const double admission_s = p.class_s[StepProfile::kAdmission];
      const double control_s = p.class_s[StepProfile::kControl];
      const std::vector<Metric> layer = {
          {"sim.dispatch_s", p.class_s[StepProfile::kDispatch], "s"},
          {"sim.dispatch_steps", steps(StepProfile::kDispatch), "count"},
          {"sim.events_per_s",
           ratio(static_cast<double>(o.events), plain.loop_s), "events/s"},
          {"transport.completion_s", p.class_s[StepProfile::kCompletion], "s"},
          {"transport.completion_steps", steps(StepProfile::kCompletion),
           "count"},
          {"core.admission_s", admission_s, "s"},
          {"core.admissions", steps(StepProfile::kAdmission), "count"},
          {"core.admission_active_flows_mean",
           ratio(static_cast<double>(p.flows_in_flight_at_admission),
                 steps(StepProfile::kAdmission)),
           "flows"},
          {"core.admission_us_per_active_flow",
           ratio(admission_s * 1e6,
                 static_cast<double>(p.flows_in_flight_at_admission)),
           "us"},
          {"core.control_s", control_s, "s"},
          {"core.control_steps", steps(StepProfile::kControl), "count"},
          {"core.control_s_per_tick",
           ratio(control_s, steps(StepProfile::kControl)), "s"},
          {"core.churn_s", p.class_s[StepProfile::kChurn], "s"},
          {"core.churn_steps", steps(StepProfile::kChurn), "count"},
          {"core.request_s", p.request_s, "s"},
          {"core.requests", static_cast<double>(a.issued), "count"},
          {"workload.next_s", p.next_s, "s"},
          {"stats.collect_s", p.collect_s, "s"},
          {"trace.overhead_ratio", ratio(tr.loop_s, plain.loop_s), "ratio"},
          {"trace.uncovered_s", tr.uncovered_s, "s"},
      };
      for (const Metric& m : layer) print_metric(m);
      for (const Metric& m : tr.out.counts) print_metric(m);
    }

    std::printf("checksum %016" PRIx64 "\n", o.checksum);
    std::printf("accounting issued %" PRIu64 " completed %" PRIu64
                " refused %" PRIu64 " failed %" PRIu64 " unfinished %" PRIu64
                "\n",
                a.issued, a.completed, a.refused, a.failed, a.unfinished);
    if (!error.empty()) std::printf("# error: %s\n", error.c_str());
    std::printf("result correct %d attempted %" PRIu64 " failed %" PRIu64
                " reps %zu\n",
                error.empty() ? 1 : 0, a.issued, o.lost, reps.size());
    return error.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scda_perfbench: %s\n", e.what());
    return 2;
  }
}
