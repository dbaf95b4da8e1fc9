// Tests for the observability layer: MetricsRegistry semantics and JSON
// stability, the TraceRecorder flight-recorder ring, the run-level
// determinism contracts (identical seeds -> identical metrics snapshot and
// byte-identical trace files), and the zero-overhead contract (metrics
// disabled -> zero heap allocations on the event hot path). The same
// allocation counter checks that building a Cloud allocates as often on a
// large tree as on a small one, that links carrying only fluid flows
// allocate nothing per link, and what starting a packet flow allocates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/cloud.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "runner/experiment.h"
#include "sim/simulator.h"
#include "stats/metrics_collect.h"
#include "stats/run_result.h"
#include "transport/transport_manager.h"
#include "util/units.h"
#include "workload/driver.h"
#include "workload/generators.h"

// ------------------------------------------- global allocation counter --
// Counts every route through the (replaced) global operator new. The
// zero-allocation test samples it around a warmed-up event loop, the
// footprint test around a Cloud's construction; everything else ignores
// it. Replacement operators must have external linkage, so
// only the counter itself is file-static.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace scda;

// ------------------------------------------------------ MetricsRegistry --

TEST(Metrics, CounterGaugeHistogramSemantics) {
  obs::MetricsRegistry reg;
  reg.add("a.counter", 2);
  reg.add("a.counter", 3);
  reg.set("b.gauge", 7.0);
  reg.set("b.gauge", 1.5);  // last write wins
  reg.observe("c.hist", 4.0);
  reg.observe("c.hist", 2.0);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("a.counter"), 5.0);
  EXPECT_EQ(snap.value("b.gauge"), 1.5);
  // Histograms expand into scalar sub-entries.
  EXPECT_EQ(snap.value("c.hist.count"), 2.0);
  EXPECT_EQ(snap.value("c.hist.mean"), 3.0);
  EXPECT_EQ(snap.value("c.hist.min"), 2.0);
  EXPECT_EQ(snap.value("c.hist.max"), 4.0);
  EXPECT_TRUE(snap.has("a.counter"));
  EXPECT_FALSE(snap.has("c.hist"));  // parent id replaced by sub-entries
  EXPECT_EQ(snap.value("absent", -1.0), -1.0);
}

TEST(Metrics, SnapshotIsIdSortedWithStableJson) {
  obs::MetricsRegistry reg;
  reg.set("zz.last", 1.0);
  reg.add("aa.first", 1.0);
  reg.observe("mm.hist", 3.0);

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 6u);
  for (std::size_t i = 1; i < snap.metrics.size(); ++i)
    EXPECT_LT(snap.metrics[i - 1].id, snap.metrics[i].id);
  EXPECT_EQ(snap.to_json(),
            "{\"aa.first\":1,\"mm.hist.count\":1,\"mm.hist.max\":3,"
            "\"mm.hist.mean\":3,\"mm.hist.min\":3,\"zz.last\":1}");
}

TEST(Metrics, EmptyRegistrySnapshotsToEmptyObject) {
  const obs::MetricsRegistry reg;
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.to_json(), "{}");
}

// -------------------------------------------------------- TraceRecorder --

std::string trace_json(const obs::TraceRecorder& tr) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  tr.write_json(f);
  std::fflush(f);
  std::rewind(f);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(Trace, RecordsAllPhases) {
  obs::TraceRecorder tr(64);
  tr.async_begin(scda::sim::secs(0.5), "flow", "tcp_flow", 7,
                 {{"bytes", 1000.0}});
  tr.instant(scda::sim::secs(1.0), "net", "packet_drop", obs::kTrackNet,
             {{"link", 3.0}});
  tr.complete(scda::sim::secs(1.5), scda::sim::secs(0.0), "control",
              "ra_round", obs::kTrackControl);
  tr.counter(scda::sim::secs(2.0), "active_flows", 5.0);
  tr.async_end(scda::sim::secs(2.5), "flow", "tcp_flow", 7, {{"fct_s", 2.0}});
  EXPECT_EQ(tr.recorded(), 5u);
  EXPECT_EQ(tr.dropped(), 0u);

  const std::string json = trace_json(tr);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"packet_drop\""), std::string::npos);
  // Timestamps are microseconds: 0.5 s -> 500000.
  EXPECT_NE(json.find("\"ts\":500000.000"), std::string::npos);
  // Track metadata and the flight-recorder totals are appended.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
}

TEST(Trace, RingOverflowDropsOldestAndCounts) {
  obs::TraceRecorder tr(8);
  for (int i = 0; i < 20; ++i)
    tr.instant(scda::sim::secs(static_cast<double>(i)), "net", "tick",
               obs::kTrackNet);
  EXPECT_EQ(tr.capacity(), 8u);
  EXPECT_EQ(tr.size(), 8u);
  EXPECT_EQ(tr.recorded(), 20u);
  EXPECT_EQ(tr.dropped(), 12u);

  // Flight-recorder semantics: the 8 newest survive (indices 12..19) and
  // serialization walks them oldest-first.
  const std::string json = trace_json(tr);
  EXPECT_EQ(json.find("\"ts\":11000000.000"), std::string::npos);
  const std::size_t oldest = json.find("\"ts\":12000000.000");
  const std::size_t newest = json.find("\"ts\":19000000.000");
  ASSERT_NE(oldest, std::string::npos);
  ASSERT_NE(newest, std::string::npos);
  EXPECT_LT(oldest, newest);
}

// ------------------------------------------------ run-level determinism --

runner::ExperimentConfig tiny_experiment(std::uint64_t seed) {
  runner::ExperimentConfig cfg;
  cfg.name = "obs-tiny";
  cfg.topology.n_agg = 1;
  cfg.topology.tors_per_agg = 2;
  cfg.topology.servers_per_tor = 2;
  cfg.topology.n_clients = 4;
  cfg.topology.base_bps = util::mbps(100);
  cfg.driver.end_time_s = 3.0;
  cfg.sim_time_s = 6.0;
  cfg.seed = seed;
  cfg.make_generator = [] {
    workload::ParetoPoissonConfig w;
    w.arrival_rate = 10.0;
    return std::make_unique<workload::ParetoPoissonWorkload>(w);
  };
  return cfg;
}

stats::RunResult run_tiny(const runner::ExperimentConfig& cfg) {
  return runner::run_once(cfg, core::PlacementPolicy::kScda,
                          transport::TransportKind::kScda,
                          runner::AfctBinning{});
}

TEST(Obs, MetricsSnapshotIsDeterministicAcrossIdenticalSeeds) {
  const stats::RunResult a = run_tiny(tiny_experiment(11));
  const stats::RunResult b = run_tiny(tiny_experiment(11));
  EXPECT_FALSE(a.metrics.empty());
  EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
  // A different seed produces a different simulation, hence different
  // metric values.
  const stats::RunResult c = run_tiny(tiny_experiment(12));
  EXPECT_NE(a.metrics.to_json(), c.metrics.to_json());
  // The catalog's headline ids are present.
  EXPECT_TRUE(a.metrics.has("sim.events.popped"));
  EXPECT_TRUE(a.metrics.has("transport.flows_completed"));
  EXPECT_TRUE(a.metrics.has("net.link.tx_packets"));
  EXPECT_TRUE(a.metrics.has("core.control.ticks"));
  EXPECT_GT(a.metrics.value("sim.events.popped"), 0.0);
}

// ------------------------------------------------------- one catalog --

/// One Cloud run's metrics snapshot, next to the component counters that
/// four of its ids copy unchanged.
struct CatalogRun {
  obs::MetricsSnapshot snap;
  sim::EventQueueStats events;
  std::uint64_t sjf_selects = 0;
  std::size_t packet_slots = 0;
};

CatalogRun run_catalog(bool all_features) {
  core::CloudConfig cc;
  cc.topology.n_agg = 1;
  cc.topology.tors_per_agg = 2;
  cc.topology.servers_per_tor = 3;
  cc.topology.n_clients = 4;
  cc.topology.base_bps = util::mbps(100);
  if (all_features) {
    cc.fluid.enabled = true;
    cc.params.replicas = 2;
    cc.params.rebalance_interval_s = 1.0;
    cc.churn.enabled = true;
    cc.churn.horizon_s = 6.0;
    cc.churn.server_mtbf_s = 4.0;
    cc.churn.server_mttr_s = 1.0;
    cc.churn.scripted.push_back(
        {2.0, sim::ScriptedFailure::Target::kNns, 0, 1.0});
  }
  sim::Simulator sim(21);
  core::Cloud cloud(sim, cc);
  net::Network& net = cloud.topology().net();
  if (all_features) {
    for (std::size_t i = 0; i < net.link_count(); ++i)
      net.link(net::LinkId::from_index(i))
          .set_discipline(net::QueueDiscipline::kSjf);
  }
  workload::ParetoPoissonConfig w;
  w.arrival_rate = 20.0;
  workload::DriverConfig dc;
  dc.end_time_s = 4.0;
  workload::WorkloadDriver driver(
      cloud, std::make_unique<workload::ParetoPoissonWorkload>(w), dc);
  driver.start();
  sim.run_until(sim::secs(8.0));

  obs::MetricsRegistry reg;
  stats::collect_run_metrics(reg, sim, cloud);
  CatalogRun r{reg.snapshot(), sim.perf()};
  for (std::size_t i = 0; i < net.link_count(); ++i)
    r.sjf_selects += net.link(net::LinkId::from_index(i))
                         .queue_perf()
                         .sjf_selects;
  r.packet_slots = net.packet_slots();
  return r;
}

std::vector<std::string> ids_of(const obs::MetricsSnapshot& snap) {
  std::vector<std::string> ids;
  for (const obs::Metric& m : snap.metrics) ids.push_back(m.id);
  return ids;
}

TEST(Obs, EveryRunReportsTheWholeCatalog) {
  const CatalogRun plain = run_catalog(false);
  const CatalogRun full = run_catalog(true);
  // Fluid mode, churn, NNS failover and rebalancing add no ids: a feature
  // that is off reports zeros, so two runs compare id by id.
  EXPECT_EQ(ids_of(plain.snap), ids_of(full.snap));
  EXPECT_EQ(plain.snap.value("transport.fluid_flows_started", -1), 0.0);
  EXPECT_EQ(plain.snap.value("churn.events_scheduled", -1), 0.0);
  EXPECT_EQ(plain.snap.value("metadata.mirror_updates", -1), 0.0);
  EXPECT_EQ(plain.snap.value("rebalance.scans", -1), 0.0);
  EXPECT_GT(full.snap.value("transport.fluid_flows_started"), 0.0);
  EXPECT_GT(full.snap.value("churn.events_scheduled"), 0.0);
  EXPECT_GT(full.snap.value("churn.nns_failures"), 0.0);
  EXPECT_GT(full.snap.value("metadata.mirror_updates"), 0.0);
  EXPECT_GT(full.snap.value("rebalance.scans"), 0.0);
  EXPECT_GT(full.sjf_selects, 0u);

  // Each copied id equals the counter it is read from.
  for (const CatalogRun* r : {&plain, &full}) {
    EXPECT_EQ(r->snap.value("sim.events.callbacks_inline", -1),
              static_cast<double>(r->events.callbacks_inline));
    EXPECT_EQ(r->snap.value("sim.events.callbacks_heap", -1),
              static_cast<double>(r->events.callbacks_heap));
    EXPECT_EQ(r->snap.value("net.link.sjf_selects", -1),
              static_cast<double>(r->sjf_selects));
    EXPECT_EQ(r->snap.value("net.packet_slots", -1),
              static_cast<double>(r->packet_slots));
    EXPECT_GT(r->events.callbacks_inline, 0u);
    EXPECT_GT(r->packet_slots, 0u);
  }
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(Obs, TraceFilesAreByteIdenticalAcrossIdenticalSeeds) {
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/scda_obs_trace_a.json";
  const std::string path_b = dir + "/scda_obs_trace_b.json";

  runner::ExperimentConfig cfg = tiny_experiment(11);
  cfg.obs.trace_path = path_a;
  (void)run_tiny(cfg);
  cfg.obs.trace_path = path_b;
  (void)run_tiny(cfg);

  const std::string a = read_file(path_a);
  const std::string b = read_file(path_b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The file is a Chrome trace-event object with flow spans in it.
  EXPECT_EQ(a.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(a.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(a.find("scda_flow"), std::string::npos);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// --------------------------------------------------- zero-overhead path --

TEST(Obs, DisabledHotPathDoesNotAllocate) {
  sim::Simulator sim(1);
  ASSERT_EQ(sim.observability(), nullptr);  // off by default

  // The BM_EventLoopThroughput shape: self-rescheduling timer chains, the
  // pattern of pacing and periodic control processes.
  struct Chain {
    sim::Simulator* sim = nullptr;
    std::uint64_t budget = 0;
    double period = 1e-3;
    void fire() {
      if (--budget > 0) {
        sim->post_in(scda::sim::secs(period), [this] { fire(); });
      }
    }
  };
  std::vector<Chain> chains(64);
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i].sim = &sim;
    chains[i].period = 1e-3 * (1.0 + 1e-4 * static_cast<double>(i));
  }
  const auto drive = [&](std::uint64_t budget) {
    for (Chain& c : chains) {
      c.budget = budget;
      sim.post_in(scda::sim::secs(c.period), [&c] { c.fire(); });
    }
    sim.run();
  };

  // Warm-up: grows the event pool and heap to steady state.
  drive(500);

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  drive(500);
  const std::uint64_t during =
      g_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(during, 0u)
      << "event hot path allocated with observability disabled";
}

TEST(Footprint, CloudConstructionAllocationsDoNotGrowWithTheTree) {
  // The tree sizes its node, link and per-node place arrays once and
  // routes from its shape, with no route tables or BFS scratch, so a Cloud
  // on 1,354 nodes allocates exactly as often as one on 18 (40 times on
  // each; 60 while the tree built route tables). Per-node or per-link
  // allocations (a heap Node or Link, an out-link vector per node) made
  // 214 / 1,422 / 6,996 here.
  const auto allocations = [](std::int32_t aggs, std::int32_t tors,
                              std::int32_t servers, std::int32_t clients) {
    scda::sim::Simulator sim;
    scda::core::CloudConfig cfg;
    cfg.topology.n_agg = aggs;
    cfg.topology.tors_per_agg = tors;
    cfg.topology.servers_per_tor = servers;
    cfg.topology.n_clients = clients;
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    const scda::core::Cloud cloud(sim, cfg);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  const std::uint64_t small = allocations(2, 2, 2, 4);
  EXPECT_EQ(allocations(4, 5, 8, 64), small);     // the paper's tree
  EXPECT_EQ(allocations(8, 8, 16, 256), small);   // perfbench fluid-scale
}

TEST(Footprint, FluidOnlyLinksAllocateNothingPerLink) {
  // A link's packet engine and cold settings are allocated when it is
  // first offered a packet or given a discipline, error model or delivery
  // callback. A star whose links only see fluid charges, joins, leaves,
  // cuts and counter reads therefore allocates as often at 10,000 links as
  // at 10.
  const auto allocations = [](std::size_t leaves) {
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    {
      scda::sim::Simulator sim;
      scda::net::Network net(sim);
      net.reserve(leaves + 1, 2 * leaves);
      const auto hub = net.add_node(scda::net::NodeRole::kTorSwitch);
      for (std::size_t i = 0; i < leaves; ++i)
        net.add_duplex(hub, net.add_node(scda::net::NodeRole::kServer),
                       scda::sim::BitRate{1e9}, 1e-6, 1 << 20);
      net.finalize();
      std::uint64_t seen = 0;
      for (std::size_t i = 0; i < net.link_count(); ++i) {
        scda::net::Link& l = net.link(scda::net::LinkId::from_index(i));
        l.fluid_flow_join();
        l.add_fluid_bytes(1500);
        l.set_up(false);
        l.set_up(true);
        seen += static_cast<std::uint64_t>(l.take_interval_arrived_bytes()) +
                l.stats().tx_bytes + l.stats().tx_packets +
                l.queue_perf().pool_hwm;
        l.fluid_flow_leave();
      }
      EXPECT_EQ(seen, 3000u * net.link_count());
    }
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  EXPECT_EQ(allocations(5'000), allocations(5));
}

TEST(Footprint, FlowStartAllocations) {
  // Starting a packet flow allocates its record, its sender, its receiver
  // and the base-RTT path it reads, and nothing else of its own: its
  // packets find the agents by flow id, in a vector beside the records.
  // The rest is the logarithmic growth of arrays every flow shares (the
  // records, the agents, the event and packet pools), so starting N more
  // flows may allocate at most 4 N times plus kShared: 16,007 times for
  // 4,000 more flows with libstdc++, where finding agents through per-node
  // and per-flow hash maps made it 32,010.
  constexpr int kFlows = 4'000;
  constexpr std::uint64_t kShared = 16;
  const auto allocations = [](bool tcp, int flows) {
    scda::sim::Simulator sim;
    scda::net::Network net(sim);
    const auto a = net.add_node(scda::net::NodeRole::kClient);
    const auto b = net.add_node(scda::net::NodeRole::kServer);
    net.add_duplex(a, b, scda::sim::BitRate{1e9}, 1e-3,
                   std::int64_t{1} << 30);
    net.build_routes();
    scda::transport::TransportManager tm(net);
    const scda::sim::BitRate rate{1e8};
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < flows; ++i) {
      if (tcp) {
        (void)tm.start_tcp_flow(a, b, 1 << 20);
      } else {
        (void)tm.start_scda_flow(a, b, 1 << 20, rate, rate);
      }
    }
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  for (const bool tcp : {false, true}) {
    const std::uint64_t more =
        allocations(tcp, 2 * kFlows) - allocations(tcp, kFlows);
    EXPECT_LE(more, 4u * kFlows + kShared) << (tcp ? "TCP" : "SCDA");
  }
}

}  // namespace
