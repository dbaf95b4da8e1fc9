// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// and the SCDA control plane: event queue churn, rate-metric math, a full
// allocator tick, the hierarchy max-min pass with a server selection, FES
// dispatch, packet forwarding, topology construction and the churn
// schedule build.
#include <benchmark/benchmark.h>

#include "core/hierarchy.h"
#include "core/path_selector.h"
#include "core/selection.h"
#include "core/water_filling.h"
#include "net/fat_tree.h"
#include "transport/transport_manager.h"
#include "core/name_node.h"
#include "core/rate_allocator.h"
#include "core/rate_metric.h"
#include "net/topology.h"
#include "sim/failure_schedule.h"
#include "sim/simulator.h"

using namespace scda;

namespace {

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i)
      q.post(sim::secs(static_cast<double>(i % 97)), [] {});
    sim::EventQueue::Fired f;
    while (q.pop(f)) benchmark::DoNotOptimize(f.time);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1024)->Arg(16384);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // RTO pattern: schedule a timer, fire an earlier event, cancel the timer.
  // Exercises cancellation cost and cancelled-entry bookkeeping (the seed
  // design leaked a tombstone per cancel-after-fire).
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    sim::EventQueue::Fired f;
    for (int i = 0; i < n; ++i) {
      const auto t = static_cast<double>(i);
      q.post(sim::secs(t + 0.1), [] {});
      auto rto = q.schedule(sim::secs(t + 5.0), [] {});
      while (q.pop(f)) {
        if (f.time > sim::secs(t + 0.2)) break;  // fired the near event
      }
      q.cancel(rto);
    }
    while (q.pop(f)) benchmark::DoNotOptimize(f.time);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(4096);

void BM_EventLoopThroughput(benchmark::State& state) {
  // Steady-state event-loop rate: `chains` concurrent self-rescheduling
  // timers (the shape of pacing/periodic processes), measured in events/s.
  const int chains = static_cast<int>(state.range(0));
  const std::uint64_t kEvents = 200'000;
  std::uint64_t total = 0;
  for (auto _ : state) {
    sim::Simulator sim(1);
    std::uint64_t fired = 0;
    std::function<void()> tick;
    struct Chain {
      sim::Simulator* sim;
      std::uint64_t* fired;
      std::uint64_t budget;
      double period;
      void fire() {
        ++*fired;
        if (--budget > 0) sim->post_in(sim::secs(period), [this] { fire(); });
      }
    };
    std::vector<Chain> cs;
    cs.reserve(static_cast<std::size_t>(chains));
    for (int i = 0; i < chains; ++i) {
      cs.push_back(Chain{&sim, &fired,
                         kEvents / static_cast<std::uint64_t>(chains),
                         1e-3 * (1.0 + 1e-4 * i)});
    }
    for (auto& c : cs) sim.post_in(sim::secs(c.period), [&c] { c.fire(); });
    sim.run();
    total += fired;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
}
BENCHMARK(BM_EventLoopThroughput)->Arg(1)->Arg(64)->Arg(1024);

void BM_LinkPipelineThroughput(benchmark::State& state) {
  // Raw link pipeline: enqueue -> transmit -> propagate -> deliver, with the
  // deliver callback refilling the queue. Measures packets/s through one
  // link with a queue depth of ~32.
  const std::uint64_t kPackets = 100'000;
  std::uint64_t delivered_total = 0;
  for (auto _ : state) {
    sim::Simulator sim(1);
    net::PacketPool pool;
    net::Link link(sim, pool, net::LinkId{0}, net::NodeId{0}, net::NodeId{1},
                   sim::BitRate{10e9}, 5e-6, 1 << 22);
    std::uint64_t delivered = 0;
    std::uint64_t sent = 0;
    link.set_deliver([&](net::Packet&&) {
      ++delivered;
      if (sent < kPackets) {
        net::Packet p = net::make_data(net::FlowId{1}, net::NodeId{0},
                                       net::NodeId{1}, 0, 1460, sim.now());
        ++sent;
        link.enqueue(std::move(p));
      }
    });
    for (int i = 0; i < 32; ++i) {
      net::Packet p = net::make_data(net::FlowId{1}, net::NodeId{0},
                                     net::NodeId{1}, 0, 1460, sim::Time{});
      ++sent;
      link.enqueue(std::move(p));
    }
    sim.run();
    delivered_total += delivered;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered_total));
}
BENCHMARK(BM_LinkPipelineThroughput);

void BM_LinkSjfDeepQueue(benchmark::State& state) {
  // SJF selection cost at deep queues: `flows` flows, 32 packets each,
  // served to exhaustion. The seed implementation re-scans the whole queue
  // for every transmitted packet (O(n) per packet, O(n^2) per drain).
  const auto flows = static_cast<int>(state.range(0));
  std::uint64_t delivered_total = 0;
  for (auto _ : state) {
    sim::Simulator sim(1);
    net::PacketPool pool;
    net::Link link(sim, pool, net::LinkId{0}, net::NodeId{0}, net::NodeId{1},
                   sim::BitRate{10e9}, 5e-6, 1 << 30);
    link.set_discipline(net::QueueDiscipline::kSjf);
    std::uint64_t delivered = 0;
    link.set_deliver([&](net::Packet&&) { ++delivered; });
    for (int i = 0; i < 32; ++i)
      for (int f = 0; f < flows; ++f)
        link.enqueue(net::make_data(net::FlowId{f}, net::NodeId{0},
                                    net::NodeId{1}, 0, 1460, sim::Time{}));
    sim.run();
    delivered_total += delivered;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered_total));
}
BENCHMARK(BM_LinkSjfDeepQueue)->Arg(8)->Arg(128);

void BM_ExactRateMetric(benchmark::State& state) {
  sim::BitRate r{95e6};
  for (auto _ : state) {
    r = core::exact_rate(sim::BitRate{95e6}, 3.0 * r, r,
                         sim::BitRate{12000.0});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ExactRateMetric);

void BM_SimplifiedRateMetric(benchmark::State& state) {
  sim::BitRate r{95e6};
  for (auto _ : state) {
    r = core::simplified_rate(sim::BitRate{95e6},
                              sim::BitCount{4'750'000},  // 95e6 bps * 0.05 s
                              0.05, r, sim::BitRate{12000.0});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SimplifiedRateMetric);

void BM_AllocatorTick(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  sim::Simulator sim(1);
  net::TopologyConfig tc;
  tc.n_agg = 4;
  tc.tors_per_agg = 5;
  tc.servers_per_tor = 8;
  tc.n_clients = 64;
  net::ThreeTierTree topo(sim, tc);
  core::ScdaParams params;
  core::RateAllocator alloc(topo.net(), params);
  sim::Rng rng(2);
  for (int f = 0; f < flows; ++f) {
    const auto c = static_cast<std::size_t>(rng.uniform_int(0, 63));
    const auto s = static_cast<std::size_t>(rng.uniform_int(0, 159));
    alloc.register_flow(net::FlowId{f}, topo.clients()[c], topo.servers()[s]);
  }
  for (auto _ : state) alloc.tick();
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_AllocatorTick)->Arg(100)->Arg(1000)->Arg(5000);

void BM_HierarchyUpdate(benchmark::State& state) {
  sim::Simulator sim(1);
  net::TopologyConfig tc;
  tc.n_agg = 4;
  tc.tors_per_agg = 5;
  tc.servers_per_tor = 8;
  tc.n_clients = 8;
  net::ThreeTierTree topo(sim, tc);
  core::ScdaParams params;
  core::RateAllocator alloc(topo.net(), params);
  std::vector<core::BlockServer> servers;
  for (std::size_t s = 0; s < topo.servers().size(); ++s)
    servers.emplace_back(s, topo.servers()[s]);
  core::Hierarchy hier(topo, alloc, servers);
  core::SlaManager sla(topo.net());
  core::ServerSelector sel(hier, servers, params, sla, sim,
                           core::PlacementPolicy::kScda);
  for (auto _ : state) {
    hier.update();
    benchmark::DoNotOptimize(
        sel.select_write_target(transport::ContentClass::kInteractive));
  }
  state.SetItemsProcessed(state.iterations() * 160);
}
BENCHMARK(BM_HierarchyUpdate);

void BM_FesDispatch(benchmark::State& state) {
  sim::Simulator sim(1);
  core::NameNode a(sim, 0, 1e-5), b(sim, 1, 1e-5), c(sim, 2, 1e-5),
      d(sim, 3, 1e-5);
  core::FrontEnd fes({&a, &b, &c, &d});
  std::int64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&fes.dispatch_by_content(k++));
  }
}
BENCHMARK(BM_FesDispatch);

void BM_PacketForwarding(benchmark::State& state) {
  // One packet client -> server across the 5-hop tree, repeatedly.
  sim::Simulator sim(1);
  net::TopologyConfig tc;
  tc.n_agg = 2;
  tc.tors_per_agg = 2;
  tc.servers_per_tor = 2;
  tc.n_clients = 2;
  net::ThreeTierTree topo(sim, tc);
  struct Sink {
    net::NodeId at;
    int delivered = 0;
  } sink{topo.servers()[0]};
  topo.net().set_local_hook(
      [](void* s, net::Packet&& p) {
        auto& sk = *static_cast<Sink*>(s);
        if (p.dst == sk.at) ++sk.delivered;
      },
      &sink);
  for (auto _ : state) {
    topo.net().send(net::make_data(net::FlowId{1}, topo.clients()[0],
                                   topo.servers()[0], 0, 1460, sim.now()));
    sim.run();
  }
  benchmark::DoNotOptimize(sink.delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketForwarding);

void BM_ScdaFlowEndToEnd(benchmark::State& state) {
  // Full 1 MB SCDA transfer across the 5-hop tree, including pacing,
  // acks and completion — the simulator's end-to-end packet rate.
  const std::int64_t kBytes = 1'000'000;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    sim::Simulator sim(1);
    net::TopologyConfig tc;
    tc.n_agg = 2;
    tc.tors_per_agg = 2;
    tc.servers_per_tor = 2;
    tc.n_clients = 2;
    net::ThreeTierTree topo(sim, tc);
    transport::TransportManager tm(topo.net());
    auto h = tm.start_scda_flow(topo.clients()[0], topo.servers()[0],
                                kBytes, sim::BitRate{200e6},
                                sim::BitRate{200e6});
    sim.run_until(sim::secs(60.0));
    packets += h.sender->stats().data_packets_sent;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.SetBytesProcessed(state.iterations() * kBytes);
}
BENCHMARK(BM_ScdaFlowEndToEnd);

void BM_TcpFlowEndToEnd(benchmark::State& state) {
  const std::int64_t kBytes = 1'000'000;
  for (auto _ : state) {
    sim::Simulator sim(1);
    net::TopologyConfig tc;
    tc.n_agg = 2;
    tc.tors_per_agg = 2;
    tc.servers_per_tor = 2;
    tc.n_clients = 2;
    net::ThreeTierTree topo(sim, tc);
    transport::TransportManager tm(topo.net());
    tm.start_tcp_flow(topo.clients()[0], topo.servers()[0], kBytes);
    sim.run_until(sim::secs(120.0));
  }
  state.SetBytesProcessed(state.iterations() * kBytes);
}
BENCHMARK(BM_TcpFlowEndToEnd);

void BM_WaterFill(benchmark::State& state) {
  // Reference allocation for `n` flows over the paper-scale tree.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim(1);
  net::TopologyConfig tc;
  net::ThreeTierTree topo(sim, tc);
  sim::Rng rng(3);
  std::vector<core::ReferenceFlow> flows(n);
  std::map<net::LinkId, sim::BitRate> caps;
  for (auto& f : flows) {
    const auto c = static_cast<std::size_t>(rng.uniform_int(0, 63));
    const auto s = static_cast<std::size_t>(rng.uniform_int(0, 159));
    f.path = topo.net().path(topo.clients()[c], topo.servers()[s]);
    f.weight = static_cast<double>(rng.uniform_int(1, 4));
    for (const auto l : f.path)
      caps[l] = topo.net().link(l).capacity();
  }
  for (auto _ : state) {
    auto copy = flows;
    core::water_fill(copy, caps);
    benchmark::DoNotOptimize(copy.front().rate);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WaterFill)->Arg(50)->Arg(500);

void BM_WidestPath(benchmark::State& state) {
  sim::Simulator sim(1);
  net::FatTreeConfig fc;
  fc.k = 4;
  fc.n_clients = 2;
  net::FatTree ft(sim, fc);
  const auto rate = [](net::LinkId l) {
    return sim::BitRate{100e6 + static_cast<double>(l.value() % 7)};
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::widest_path(
        ft.net(), ft.servers()[0], ft.servers()[15], rate));
  }
}
BENCHMARK(BM_WidestPath);

void BM_EcmpPathEnumeration(benchmark::State& state) {
  sim::Simulator sim(1);
  net::FatTreeConfig fc;
  fc.k = static_cast<std::int32_t>(state.range(0));
  fc.n_clients = 2;
  net::FatTree ft(sim, fc);
  const auto last = ft.servers().size() - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::all_shortest_paths(ft.net(), ft.servers()[0],
                                ft.servers()[last]));
  }
}
BENCHMARK(BM_EcmpPathEnumeration)->Arg(4)->Arg(6);

void BM_TopologyBuild(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(1);
    net::TopologyConfig tc;  // paper-scale: 160 servers
    net::ThreeTierTree topo(sim, tc);
    benchmark::DoNotOptimize(topo.net().link_count());
  }
}
BENCHMARK(BM_TopologyBuild);

// build_failure_schedule at churn-storage's churn (perfbench/workloads.cpp:
// server MTBF 100 s, MTTR 5 s, 15 s horizon, three scripted NNS outages)
// over n servers. Nearly all of it is starting each server's stream.
void BM_FailureSchedule(benchmark::State& state) {
  using Target = sim::ScriptedFailure::Target;
  sim::ChurnConfig cfg;
  cfg.enabled = true;
  cfg.server_mtbf_s = 100.0;
  cfg.server_mttr_s = 5.0;
  cfg.horizon_s = 15.0;
  cfg.scripted = {{2.0, Target::kNns, 0, 4.0},
                  {4.0, Target::kNns, 5, 5.0},
                  {6.0, Target::kNns, 1, 1.5}};
  const auto n = static_cast<std::int32_t>(state.range(0));
  const sim::ChurnShape shape{n, n / 8, n / 4, 8};
  std::uint64_t seed = 61;
  benchmark::DoNotOptimize(seed);
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::build_failure_schedule(cfg, shape, seed));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FailureSchedule)->Arg(160)->Arg(1024)->Arg(8192);

}  // namespace

int main(int argc, char** argv) {
  // The stock `library_build_type` context reports how *libbenchmark* was
  // compiled, not this binary; record our own toolchain so
  // scripts/bench_core.sh can assert the measured code was optimized.
#ifdef NDEBUG
  benchmark::AddCustomContext("scda_toolchain", "optimized");
#else
  benchmark::AddCustomContext("scda_toolchain", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
