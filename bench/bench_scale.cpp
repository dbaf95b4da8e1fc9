// bench_scale — the fluid-engine scale benchmark behind BENCH_scale.json.
//
// Builds a k-ary fat-tree (default k=32: 8192 servers), routes each flow
// over the analytic FatTree::server_path, drives Poisson
// server-to-server elephants through the RateAllocator + FluidEngine pair,
// and reports completed flows, events and wall-clock as one JSON object on
// stdout. No TransportManager, no per-flow heap records: the bench issues
// monotonic flow ids itself, so the steady-state cost per flow is two
// events (arrival, completion) plus its share of the per-epoch re-rates.
//
// All fields except wall_s / events_per_s / flows_per_s are a pure
// function of the arguments and seed; `checksum` folds every completion
// (id, time) pair, so two runs agreeing on it replayed the same history.
//
//   bench_scale                          # the committed k=32 configuration
//   bench_scale --k 4 --duration 5 --arrival-rate 200   # CI smoke
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "core/rate_allocator.h"
#include "net/fat_tree.h"
#include "sim/simulator.h"
#include "transport/fluid.h"
#include "util/args.h"
#include "workload/generators.h"

using namespace scda;

namespace {

#ifdef NDEBUG
constexpr const char* kToolchain = "optimized";
#else
constexpr const char* kToolchain = "debug";
#endif

/// splitmix64 fold for the determinism checksum.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  if (args.has("help")) {
    std::puts(
        "bench_scale — fluid-engine fat-tree scale benchmark\n"
        "\n"
        "  --k N                pod arity (default 32 -> 8192 servers)\n"
        "  --arrival-rate R     aggregate flows/sec (default 10000)\n"
        "  --duration S         arrival window (default 105)\n"
        "  --drain S            extra drain time (default 60)\n"
        "  --tau S              RA control interval (default 0.05)\n"
        "  --seed N             RNG seed (default 1)\n");
    return 0;
  }

  try {
    const auto k = static_cast<std::int32_t>(args.get_int("k", 32));
    const double arrival_rate = args.get_double("arrival-rate", 10000.0);
    const double duration_s = args.get_double("duration", 105.0);
    const double drain_s = args.get_double("drain", 60.0);
    const double tau = args.get_double("tau", 0.05);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

    const auto wall0 = std::chrono::steady_clock::now();

    sim::Simulator sim(seed);
    net::FatTreeConfig tc;
    tc.k = k;
    tc.n_clients = 0;
    net::FatTree ft(sim, tc);

    core::ScdaParams params;
    params.tau = tau;
    core::RateAllocator alloc(ft.net(), params);
    transport::FluidEngine fluid(ft.net());

    const auto n_servers = ft.servers().size();
    workload::ScaleWorkloadConfig wc;
    wc.arrival_rate = arrival_rate;
    workload::ScaleWorkload gen(wc);

    // Per-flow start times and sizes, indexed by monotonic flow id.
    std::vector<std::int64_t> start_ns;
    std::vector<std::int64_t> size_bytes;
    std::uint64_t started = 0, completed = 0;
    std::int64_t bytes_completed = 0;
    double fct_sum_s = 0;
    std::size_t peak_active = 0;
    std::uint64_t checksum = 0;

    fluid.set_completion_callback([&](net::FlowId id) {
      alloc.unregister_flow(id);
      ++completed;
      const std::int64_t now_ns = sim.now().nanos();
      fct_sum_s += static_cast<double>(now_ns - start_ns[id.index()]) * 1e-9;
      bytes_completed += size_bytes[id.index()];
      checksum = mix(checksum, static_cast<std::uint64_t>(id.value()));
      checksum = mix(checksum, static_cast<std::uint64_t>(now_ns));
    });

    // Each RA epoch: fluid flows integrate their old rate up to the tick
    // and continue at the fresh allocations.
    sim::PeriodicProcess control(sim, sim::secs(tau), [&] {
      alloc.tick();
      fluid.rerate_all([&](net::FlowId id) { return alloc.flow_rate(id); },
                       /*epoch=*/true);
      peak_active = std::max(peak_active, fluid.active_flows());
    });
    control.start(sim::secs(tau));

    // Self-scheduling Poisson arrivals between distinct random servers.
    const sim::Time arrival_end = sim::secs(duration_s);
    std::function<void()> arrive = [&] {
      const auto src = static_cast<std::size_t>(sim.rng().uniform_int(
          0, static_cast<std::int64_t>(n_servers) - 1));
      auto dst = static_cast<std::size_t>(sim.rng().uniform_int(
          0, static_cast<std::int64_t>(n_servers) - 2));
      if (dst >= src) ++dst;  // uniform over servers != src

      const workload::FlowRequest req = gen.next(sim.rng());
      const net::FlowId id = net::FlowId::from_index(start_ns.size());
      const std::vector<net::LinkId> path = ft.server_path(src, dst, id);
      alloc.register_flow_on_path(id, path);
      start_ns.push_back(sim.now().nanos());
      size_bytes.push_back(req.size_bytes);
      ++started;
      // Seed from what the path currently offers; the next epoch (<= tau
      // away) settles the flow onto its fair allocation.
      fluid.start(id, req.size_bytes, alloc.path_rate(path), path);

      const sim::Time next = sim.now() + sim::secs(req.inter_arrival_s);
      if (next < arrival_end) sim.post_at(next, arrive);
    };
    sim.post_at(sim::Time{}, arrive);

    const std::uint64_t events = sim.run_until(sim::secs(duration_s + drain_s));
    control.stop();

    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();

    std::printf(
        "{\n"
        "  \"bench\": \"scale\",\n"
        "  \"k\": %d,\n"
        "  \"servers\": %zu,\n"
        "  \"links\": %zu,\n"
        "  \"route_table_entries\": %zu,\n"
        "  \"tau_s\": %g,\n"
        "  \"arrival_rate\": %g,\n"
        "  \"duration_s\": %g,\n"
        "  \"drain_s\": %g,\n"
        "  \"seed\": %llu,\n"
        "  \"flows_started\": %llu,\n"
        "  \"flows_completed\": %llu,\n"
        "  \"bytes_completed\": %lld,\n"
        "  \"afct_s\": %.6f,\n"
        "  \"peak_active_flows\": %zu,\n"
        "  \"fluid_epochs\": %llu,\n"
        "  \"fluid_rerates\": %llu,\n"
        "  \"events\": %llu,\n"
        "  \"checksum\": \"%016llx\",\n"
        "  \"toolchain\": \"%s\",\n"
        "  \"wall_s\": %.3f,\n"
        "  \"events_per_s\": %.0f,\n"
        "  \"flows_per_s\": %.0f\n"
        "}\n",
        k, n_servers, ft.net().link_count(),
        ft.net().route_table_entries(), tau, arrival_rate, duration_s,
        drain_s, static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(started),
        static_cast<unsigned long long>(completed),
        static_cast<long long>(bytes_completed),
        completed ? fct_sum_s / static_cast<double>(completed) : 0.0,
        peak_active, static_cast<unsigned long long>(fluid.stats().epochs),
        static_cast<unsigned long long>(fluid.stats().rerates),
        static_cast<unsigned long long>(events),
        static_cast<unsigned long long>(checksum), kToolchain, wall_s,
        wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0,
        wall_s > 0 ? static_cast<double>(completed) / wall_s : 0.0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_scale: %s\n", e.what());
    return 1;
  }
  return 0;
}
