// bench_churn — durability-under-churn ablation behind BENCH_churn.json.
//
// Runs the Pareto/Poisson workload against a cloud with stochastic server
// churn (alternating Exp(MTBF)/Exp(MTTR) renewals from the deterministic
// failure schedule) and compares SCDA rate-metric placement against random
// placement at replication factors k in {1, 2, 3}. Both arms use the SCDA
// transport so the comparison isolates placement: where copies land
// decides how often reads fail over, how much repair traffic the fabric
// carries and how long objects stay under-replicated.
//
// Output is one JSON object on stdout. Every field except wall_s is a
// pure function of the arguments and seed; `checksum` folds the headline
// counters of every cell, so two runs agreeing on it replayed the same
// history (scripts/bench_gate.py consumes the committed baseline).
//
//   bench_churn                          # the committed configuration
//   bench_churn --duration 10 --drain 5  # CI smoke
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "runner/experiment.h"
#include "runner/worker_pool.h"
#include "util/args.h"
#include "util/units.h"
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

struct CellSpec {
  core::PlacementPolicy placement = core::PlacementPolicy::kScda;
  std::int32_t replicas = 2;
};

struct CellResult {
  std::uint64_t flows_completed = 0;
  double mean_fct_s = 0;
  std::uint64_t failed_reads = 0;
  std::uint64_t failovers = 0;
  std::uint64_t aborted_flows = 0;
  std::uint64_t repair_flows = 0;
  std::uint64_t repair_bytes = 0;
  std::uint64_t objects_lost = 0;
  std::uint64_t sla_during_repair = 0;
  double under_replicated_s = 0;
  std::uint64_t server_failures = 0;
};

struct BenchArgs {
  double duration_s = 30.0;
  double drain_s = 15.0;
  double arrival_rate = 30.0;
  double mtbf_s = 60.0;
  double mttr_s = 4.0;
  std::uint64_t seed = 1;
};

CellResult run_cell(const CellSpec& spec, const BenchArgs& a) {
  runner::ExperimentConfig cfg;
  cfg.name = "churn";
  cfg.topology.n_agg = 2;
  cfg.topology.tors_per_agg = 2;
  cfg.topology.servers_per_tor = 4;
  cfg.topology.n_clients = 16;
  cfg.topology.base_bps = util::mbps(200);
  cfg.enable_replication = spec.replicas > 1;
  cfg.params.replicas = spec.replicas;
  cfg.churn.enabled = true;
  cfg.churn.server_mtbf_s = a.mtbf_s;
  cfg.churn.server_mttr_s = a.mttr_s;
  cfg.sim_time_s = a.duration_s + a.drain_s;  // also the churn horizon
  cfg.seed = a.seed;
  cfg.driver.end_time_s = a.duration_s;
  cfg.driver.read_fraction = 0.5;  // failover path needs a read-heavy mix
  workload::ParetoPoissonConfig pc;
  pc.arrival_rate = a.arrival_rate;
  pc.cap_bytes = 20 * 1000 * 1000;
  cfg.make_generator = [pc] {
    return std::make_unique<workload::ParetoPoissonWorkload>(pc);
  };
  const stats::RunResult run = runner::run_once(
      cfg, spec.placement, transport::TransportKind::kScda, {});

  const obs::MetricsSnapshot& m = run.metrics;
  const auto n = [&m](const char* id) {
    return static_cast<std::uint64_t>(m.value(id));
  };
  CellResult r;
  r.flows_completed = run.summary.flows;
  r.mean_fct_s = run.summary.mean_fct_s;
  r.failed_reads = run.failed_reads;
  r.failovers = n("churn.failovers");
  r.aborted_flows = n("churn.aborted_flows");
  r.repair_flows = n("churn.repair_flows_completed");
  r.repair_bytes = n("churn.repair_bytes");
  r.objects_lost = n("churn.objects_lost");
  r.sla_during_repair = n("churn.sla_violations_during_repair");
  r.under_replicated_s = m.value("churn.under_replicated_seconds");
  r.server_failures = n("churn.server_failures");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  if (args.has("help")) {
    std::puts(
        "bench_churn — SCDA vs random placement under server churn\n"
        "\n"
        "  --duration S         arrival window (default 30)\n"
        "  --drain S            extra drain time (default 15)\n"
        "  --arrival-rate R     flows/sec (default 30)\n"
        "  --mtbf S             mean server up-time (default 60)\n"
        "  --mttr S             mean server down-time (default 4)\n"
        "  --seed N             RNG seed (default 1)\n"
        "  --workers N          worker threads (default 2)\n");
    return 0;
  }

  try {
    args.refuse_unknown({"duration", "drain", "arrival-rate", "mtbf", "mttr",
                         "seed", "workers"});
    BenchArgs a;
    a.duration_s = args.get_double("duration", a.duration_s);
    a.drain_s = args.get_double("drain", a.drain_s);
    a.arrival_rate = args.get_double("arrival-rate", a.arrival_rate);
    a.mtbf_s = args.get_double("mtbf", a.mtbf_s);
    a.mttr_s = args.get_double("mttr", a.mttr_s);
    a.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

    std::vector<CellSpec> cells;
    for (const std::int32_t k : {1, 2, 3}) {
      cells.push_back({core::PlacementPolicy::kScda, k});
      cells.push_back({core::PlacementPolicy::kRandom, k});
    }

    const auto wall0 = std::chrono::steady_clock::now();
    runner::WorkerPool pool(args.get_count("workers", 2));
    const auto results = runner::parallel_map<CellResult>(
        pool, cells,
        [&a](const CellSpec& spec, std::size_t) { return run_cell(spec, a); });
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();

    std::uint64_t checksum = 0;
    for (const CellResult& r : results) {
      checksum = mix(checksum, r.flows_completed);
      checksum = mix(checksum, r.failovers);
      checksum = mix(checksum, r.aborted_flows);
      checksum = mix(checksum, r.repair_bytes);
      checksum = mix(checksum, r.objects_lost);
    }

    std::printf(
        "{\n"
        "  \"bench\": \"churn\",\n"
        "  \"duration_s\": %g,\n"
        "  \"drain_s\": %g,\n"
        "  \"arrival_rate\": %g,\n"
        "  \"server_mtbf_s\": %g,\n"
        "  \"server_mttr_s\": %g,\n"
        "  \"seed\": %llu,\n"
        "  \"cells\": [\n",
        a.duration_s, a.drain_s, a.arrival_rate, a.mtbf_s, a.mttr_s,
        static_cast<unsigned long long>(a.seed));
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellSpec& c = cells[i];
      const CellResult& r = results[i];
      std::printf(
          "    {\"placement\": \"%s\", \"replicas\": %d, "
          "\"flows_completed\": %llu, \"mean_fct_s\": %.6f, "
          "\"failed_reads\": %llu, \"failovers\": %llu, "
          "\"aborted_flows\": %llu, \"repair_flows\": %llu, "
          "\"repair_bytes\": %llu, \"objects_lost\": %llu, "
          "\"sla_violations_during_repair\": %llu, "
          "\"under_replicated_s\": %.3f, \"server_failures\": %llu}%s\n",
          c.placement == core::PlacementPolicy::kScda ? "scda" : "random",
          c.replicas, static_cast<unsigned long long>(r.flows_completed),
          r.mean_fct_s, static_cast<unsigned long long>(r.failed_reads),
          static_cast<unsigned long long>(r.failovers),
          static_cast<unsigned long long>(r.aborted_flows),
          static_cast<unsigned long long>(r.repair_flows),
          static_cast<unsigned long long>(r.repair_bytes),
          static_cast<unsigned long long>(r.objects_lost),
          static_cast<unsigned long long>(r.sla_during_repair),
          r.under_replicated_s,
          static_cast<unsigned long long>(r.server_failures),
          i + 1 < cells.size() ? "," : "");
    }
    std::printf(
        "  ],\n"
        "  \"checksum\": \"%016llx\",\n"
        "  \"toolchain\": \"%s\",\n"
        "  \"wall_s\": %.3f\n"
        "}\n",
        static_cast<unsigned long long>(checksum), kToolchain, wall_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_churn: %s\n", e.what());
    return 1;
  }
  return 0;
}
