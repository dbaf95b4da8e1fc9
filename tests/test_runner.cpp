// Tests for the sweep runner: seed derivation, the worker pool, logger
// thread-safety, cross-instance Simulator isolation, a bounded classifier
// footprint in concurrent Clouds, and the headline determinism contract —
// aggregated sweep output is byte-identical no matter how many workers
// executed it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cloud.h"
#include "runner/experiment.h"
#include "runner/seed_sequence.h"
#include "runner/sweep.h"
#include "runner/worker_pool.h"
#include "sim/simulator.h"
#include "stats/aggregate.h"
#include "stats/collector.h"
#include "util/log.h"
#include "util/units.h"
#include "workload/driver.h"
#include "workload/generators.h"

namespace {

using namespace scda;

// ---------------------------------------------------------------- seeds --

TEST(SeedSequence, ReplicationZeroIsBaseSeed) {
  EXPECT_EQ(runner::derive_seed(0x5cda2013ULL, 0), 0x5cda2013ULL);
  EXPECT_EQ(runner::derive_seed(7, 0), 7u);
}

TEST(SeedSequence, DerivedSeedsAreDeterministicAndDistinct) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t r = 0; r < 1000; ++r) {
    const std::uint64_t s = runner::derive_seed(42, r);
    EXPECT_EQ(s, runner::derive_seed(42, r));  // pure function
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions in a long sweep
  // Different base seeds give unrelated streams.
  EXPECT_NE(runner::derive_seed(1, 5), runner::derive_seed(2, 5));
}

// ----------------------------------------------------------- WorkerPool --

TEST(WorkerPool, RunsEveryJobExactlyOnce) {
  for (const unsigned workers : {1u, 2u, 8u}) {
    runner::WorkerPool pool(workers);
    std::vector<std::atomic<int>> hits(100);
    pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(WorkerPool, ParallelMapPreservesOrder) {
  runner::WorkerPool pool(4);
  std::vector<int> in(257);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<int>(i);
  const auto out = runner::parallel_map<long>(
      pool, in, [](int x, std::size_t idx) {
        EXPECT_EQ(static_cast<std::size_t>(x), idx);
        return static_cast<long>(x) * 3;
      });
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<long>(i) * 3);
}

TEST(WorkerPool, ReportsLowestIndexException) {
  runner::WorkerPool pool(4);
  // Several jobs throw; the rethrown exception must be job 3's (the lowest
  // throwing index) regardless of scheduling.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> completed{0};
    try {
      pool.run(64, [&](std::size_t i) {
        if (i == 3 || i == 40 || i == 63)
          throw std::runtime_error("job " + std::to_string(i));
        completed.fetch_add(1);
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 3");
    }
    EXPECT_EQ(completed.load(), 61);  // no short-circuit: the rest all ran
  }
}

TEST(WorkerPool, ReusableAcrossBatches) {
  runner::WorkerPool pool(3);
  for (int batch = 0; batch < 50; ++batch) {
    std::atomic<int> sum{0};
    pool.run(10, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(WorkerPool, DefaultWorkersRespectsEnv) {
  ::setenv("SCDA_WORKERS", "3", 1);
  EXPECT_EQ(runner::default_workers(), 3u);
  ::unsetenv("SCDA_WORKERS");
  EXPECT_GE(runner::default_workers(), 1u);
}

// The worker variables follow the --workers rule. Only the values are
// parsed here; no pool is built from them.
TEST(WorkerPool, WorkerVariablesRefuseWhatWorkersRefuses) {
  for (const char* var : {"SCDA_WORKERS", "SCDA_BENCH_WORKERS"}) {
    SCOPED_TRACE(var);
    ::unsetenv(var);
    EXPECT_FALSE(runner::env_count(var).has_value());
    ::setenv(var, "4294967295", 1);
    EXPECT_EQ(runner::env_count(var), 4294967295u);
    // 4294967297 used to wrap to 1 worker and 5000000000 to 705,032,704;
    // 0, -2 and abc fell back to every core.
    for (const char* bad : {"4294967297", "5000000000", "0", "-2", "abc",
                            "3x", ""}) {
      ::setenv(var, bad, 1);
      try {
        (void)runner::env_count(var);
        ADD_FAILURE() << "accepted " << bad;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).rfind(var, 0), 0u) << e.what();
      }
    }
    ::unsetenv(var);
  }
  ::setenv("SCDA_WORKERS", "5000000000", 1);
  EXPECT_THROW((void)runner::default_workers(), std::invalid_argument);
  ::unsetenv("SCDA_WORKERS");
}

// ------------------------------------------------------------------ Log --

TEST(Log, ConcurrentWritersProduceIntactLines) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  util::Log::set_sink(sink);
  util::Log::set_level(util::LogLevel::kInfo);
  constexpr int kThreads = 4, kLines = 500;
  {
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([t] {
        for (int i = 0; i < kLines; ++i)
          SCDA_LOG_INFO("writer %d line %d end", t, i);
      });
    }
    for (auto& th : ts) th.join();
  }
  util::Log::set_level(util::LogLevel::kWarn);
  util::Log::set_sink(stderr);

  std::fflush(sink);
  std::rewind(sink);
  char buf[256];
  int lines = 0;
  while (std::fgets(buf, sizeof buf, sink)) {
    ++lines;
    int t = -1, i = -1;
    // Every line must be a complete, un-interleaved record.
    ASSERT_EQ(std::sscanf(buf, "[INFO ] writer %d line %d end", &t, &i), 2)
        << "corrupt line: " << buf;
    EXPECT_GE(t, 0);
    EXPECT_LT(t, kThreads);
  }
  std::fclose(sink);
  EXPECT_EQ(lines, kThreads * kLines);
}

// ------------------------------------------- cross-instance isolation ----

runner::ExperimentConfig tiny_experiment(std::uint64_t seed) {
  runner::ExperimentConfig cfg;
  cfg.name = "tiny";
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

void expect_identical(const stats::RunResult& a, const stats::RunResult& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.summary.mean_fct_s, b.summary.mean_fct_s);
  EXPECT_EQ(a.summary.goodput_bps, b.summary.goodput_bps);
  EXPECT_EQ(a.mean_throughput_kbs, b.mean_throughput_kbs);
  EXPECT_EQ(a.energy_j, b.energy_j);
  ASSERT_EQ(a.fct_cdf.size(), b.fct_cdf.size());
  for (std::size_t i = 0; i < a.fct_cdf.size(); ++i)
    EXPECT_EQ(a.fct_cdf[i].x, b.fct_cdf[i].x);
}

/// A run stepped manually in time slices, so two instances can interleave.
struct SlicedRun {
  explicit SlicedRun(const runner::ExperimentConfig& cfg)
      : config(cfg), sim(cfg.seed) {
    core::CloudConfig cc;
    cc.topology = cfg.topology;
    cc.params = cfg.params;
    cloud = std::make_unique<core::Cloud>(sim, cc);
    collector = std::make_unique<stats::FlowStatsCollector>(*cloud);
    driver = std::make_unique<workload::WorkloadDriver>(
        *cloud, cfg.make_generator(), cfg.driver);
    driver->start();
  }
  std::uint64_t advance_to(double t) {
    return sim.run_until(scda::sim::secs(t));
  }

  runner::ExperimentConfig config;
  sim::Simulator sim;
  std::unique_ptr<core::Cloud> cloud;
  std::unique_ptr<stats::FlowStatsCollector> collector;
  std::unique_ptr<workload::WorkloadDriver> driver;
};

TEST(Isolation, InterleavedSimulatorsMatchSoloRuns) {
  // Reference: each seed run alone, straight through.
  SlicedRun solo_a(tiny_experiment(1));
  SlicedRun solo_b(tiny_experiment(2));
  std::uint64_t events_a = solo_a.advance_to(6.0);
  std::uint64_t events_b = solo_b.advance_to(6.0);

  // Interleaved: alternate sub-second slices between the two instances.
  SlicedRun mix_a(tiny_experiment(1));
  SlicedRun mix_b(tiny_experiment(2));
  std::uint64_t mixed_a = 0, mixed_b = 0;
  for (double t = 0.5; t <= 6.0; t += 0.5) {
    mixed_a += mix_a.advance_to(t);
    mixed_b += mix_b.advance_to(t);
  }
  EXPECT_EQ(mixed_a, events_a);
  EXPECT_EQ(mixed_b, events_b);
  const stats::Summary sa = solo_a.collector->summary();
  const stats::Summary ma = mix_a.collector->summary();
  EXPECT_EQ(sa.flows, ma.flows);
  EXPECT_EQ(sa.mean_fct_s, ma.mean_fct_s);
  EXPECT_EQ(sa.goodput_bps, ma.goodput_bps);
  const stats::Summary sb = solo_b.collector->summary();
  const stats::Summary mb = mix_b.collector->summary();
  EXPECT_EQ(sb.flows, mb.flows);
  EXPECT_EQ(sb.mean_fct_s, mb.mean_fct_s);
  EXPECT_EQ(sb.goodput_bps, mb.goodput_bps);
}

TEST(Isolation, ConcurrentSimulatorsMatchSoloRuns) {
  const runner::AfctBinning bins;
  // Reference: sequential runs.
  const stats::RunResult ref1 =
      runner::run_once(tiny_experiment(11), core::PlacementPolicy::kScda,
                       transport::TransportKind::kScda, bins);
  const stats::RunResult ref2 =
      runner::run_once(tiny_experiment(22), core::PlacementPolicy::kScda,
                       transport::TransportKind::kScda, bins);

  // Two Simulators running at the same time on different threads.
  stats::RunResult con1, con2;
  std::thread t1([&] {
    con1 = runner::run_once(tiny_experiment(11), core::PlacementPolicy::kScda,
                            transport::TransportKind::kScda, bins);
  });
  std::thread t2([&] {
    con2 = runner::run_once(tiny_experiment(22), core::PlacementPolicy::kScda,
                            transport::TransportKind::kScda, bins);
  });
  t1.join();
  t2.join();
  expect_identical(ref1, con1);
  expect_identical(ref2, con2);
}

// ------------------------------------------------ bounded footprint ----

/// After a steady stream of small requests over `windows` classifier
/// windows: the classifier's log length, and the write, read and append
/// completions of the last window as a completion callback counted them.
struct WindowCount {
  std::size_t log = 0;
  std::size_t completions = 0;
};

WindowCount steady_stream_window(int windows) {
  sim::Simulator sim(7);
  core::CloudConfig cc;
  cc.topology.n_agg = 2;
  cc.topology.tors_per_agg = 2;
  cc.topology.servers_per_tor = 2;
  cc.topology.n_clients = 4;
  cc.topology.base_bps = util::mbps(100);
  core::Cloud cloud(sim, cc);
  std::vector<sim::SimTime> done;
  cloud.add_completion_callback(
      [&](const transport::FlowRecord&, const core::CloudOp& op) {
        if (op.kind == core::CloudOp::Kind::kWrite ||
            op.kind == core::CloudOp::Kind::kRead ||
            op.kind == core::CloudOp::Kind::kAppend)
          done.push_back(sim.now());
      });
  // One request round per second, half a second after each whole second:
  // a new object, a read of the one written 8 s before, and every fourth
  // round an append to it.
  const sim::SimTime window =
      sim::secs(cloud.classifier().config().window_s);
  const sim::SimTime end = window * windows;
  for (core::ContentId id = 0;; ++id) {
    const sim::SimTime due = sim::secs(static_cast<double>(id) + 0.5);
    if (due >= end) break;
    sim.run_until(due);
    const auto client = static_cast<std::size_t>(id % 4);
    EXPECT_TRUE(cloud.write(client, id, 4000));
    if (id < 8) continue;
    EXPECT_TRUE(cloud.read(client, id - 8));
    if (id % 4 == 0) {
      EXPECT_TRUE(cloud.append(client, id - 8, 1000));
    }
  }
  sim.run_until(end);
  // The last query expires every access older than the window.
  EXPECT_EQ(cloud.classifier().accesses_in_window(0, sim.now()), 0u);
  WindowCount n;
  n.log = cloud.classifier().window_accesses();
  n.completions = static_cast<std::size_t>(
      done.end() - std::lower_bound(done.begin(), done.end(), end - window));
  return n;
}

TEST(Footprint, ClassifierHoldsOnlyTheLastWindow) {
  // The two run lengths execute side by side on the worker pool, so the
  // TSan shard covers this test too.
  runner::WorkerPool pool(2);
  const std::vector<int> windows = {2, 4};
  const auto counts = runner::parallel_map<WindowCount>(
      pool, windows, [](int w, std::size_t) { return steady_stream_window(w); });
  for (const WindowCount& n : counts) {
    EXPECT_GT(n.completions, 0u);
    EXPECT_EQ(n.log, n.completions);
  }
  // The window holds as many accesses after four windows as after two:
  // the classifier does not grow with the run.
  EXPECT_EQ(counts[0].log, counts[1].log);
}

// ------------------------------------------------- sweep determinism ----

std::string sweep_json(unsigned workers) {
  runner::SweepSpec spec;
  spec.base = tiny_experiment(0x5cda2013ULL);
  spec.arms = {
      {"SCDA", core::PlacementPolicy::kScda, transport::TransportKind::kScda},
      {"RandTCP", core::PlacementPolicy::kRandom,
       transport::TransportKind::kTcp},
  };
  spec.seeds = 3;
  runner::WorkerPool pool(workers);
  const runner::SweepResult res = runner::run_sweep(spec, pool);

  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  for (const runner::ArmSummary& s : runner::aggregate_sweep(spec, res))
    stats::emit_aggregate_json(f, s.label, s.agg);
  std::fflush(f);
  std::rewind(f);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(Sweep, AggregatedJsonIsByteIdenticalAcrossWorkerCounts) {
  const std::string one = sweep_json(1);
  const std::string eight = sweep_json(8);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
  // Sanity: both arms and the label scheme appear.
  EXPECT_NE(one.find("\"label\":\"SCDA\""), std::string::npos);
  EXPECT_NE(one.find("\"label\":\"RandTCP\""), std::string::npos);
}

TEST(Sweep, MetricsAreCollectedConcurrentlyAndMatchSerialRuns) {
  // Each run's metrics registry is private to its run_once() call, so
  // collection must be race-free under the worker pool (this test is part
  // of the TSan shard) and per-run snapshots must not depend on how many
  // workers executed the sweep.
  runner::SweepSpec spec;
  spec.base = tiny_experiment(0x5cda2013ULL);
  spec.arms = {
      {"SCDA", core::PlacementPolicy::kScda, transport::TransportKind::kScda},
      {"RandTCP", core::PlacementPolicy::kRandom,
       transport::TransportKind::kTcp},
  };
  spec.seeds = 4;
  runner::WorkerPool serial(1);
  runner::WorkerPool pool(4);
  const runner::SweepResult one = runner::run_sweep(spec, serial);
  const runner::SweepResult four = runner::run_sweep(spec, pool);
  ASSERT_EQ(one.results.size(), four.results.size());
  for (std::size_t i = 0; i < one.results.size(); ++i) {
    EXPECT_FALSE(one.results[i].metrics.empty());
    EXPECT_EQ(one.results[i].metrics.to_json(),
              four.results[i].metrics.to_json());
  }
}

TEST(Sweep, ExpansionIsPureAndPaired) {
  runner::SweepSpec spec;
  spec.base = tiny_experiment(9);
  spec.arms = {{"A", core::PlacementPolicy::kScda,
                transport::TransportKind::kScda},
               {"B", core::PlacementPolicy::kRandom,
                transport::TransportKind::kTcp}};
  spec.grid = {{"tau", {0.01, 0.05}}, {"read_fraction", {0.0, 0.5}}};
  spec.seeds = 2;
  const auto runs = runner::expand_runs(spec);
  ASSERT_EQ(runs.size(), 4u * 2u * 2u);  // cells x arms x seeds
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(runs[i].index, i);
  // Replication r of both arms shares the seed (paired comparison)...
  EXPECT_EQ(runs[0].seed, runs[2].seed);
  // ...replications within an arm do not.
  EXPECT_NE(runs[0].seed, runs[1].seed);
  // Seed index 0 is the base seed verbatim.
  EXPECT_EQ(runs[0].seed, spec.base.seed);
  // Grid values land in the config; the first axis varies slowest.
  const auto cfg_first = runner::make_run_config(spec, runs[0]);
  EXPECT_EQ(cfg_first.params.tau, 0.01);
  EXPECT_EQ(cfg_first.driver.read_fraction, 0.0);
  const auto cfg_last = runner::make_run_config(spec, runs.back());
  EXPECT_EQ(cfg_last.params.tau, 0.05);
  EXPECT_EQ(cfg_last.driver.read_fraction, 0.5);
}

TEST(Sweep, ApplyParamRejectsUnknownNames) {
  runner::ExperimentConfig cfg;
  EXPECT_THROW(runner::apply_param(cfg, "no_such_knob", 1.0),
               std::invalid_argument);
}

// The table is the one place a value becomes an integer: a fraction, NaN or
// a value past the field's type is refused, naming the parameter.
TEST(Sweep, ApplyParamRefusesIntegersOutsideTheirType) {
  runner::ExperimentConfig cfg;
  const double nan = std::nan("");
  for (const auto& [name, value] :
       std::vector<std::pair<std::string, double>>{
           {"replicas", 1e10},
           {"replicas", 2.5},
           {"n_agg", -2147483649.0},
           {"n_clients", 4294967297.0},
           {"metadata_max_attempts", nan},
           {"max_concurrent_repairs", 0x1p31},
           {"queue_limit_bytes", 0x1p63},
           {"fluid_threshold_bytes", 1e19}}) {
    try {
      runner::apply_param(cfg, name, value);
      ADD_FAILURE() << "accepted " << name << "=" << value;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(name + " must be a whole number "
                                            "in [",
                                            0),
                0u)
          << e.what();
    }
  }
  // The type's edges and negative counts pass; the Cloud and the tree
  // refuse a count they cannot use.
  runner::apply_param(cfg, "replicas", 2147483647.0);
  EXPECT_EQ(cfg.params.replicas, 2147483647);
  runner::apply_param(cfg, "n_agg", -2147483648.0);
  EXPECT_EQ(cfg.topology.n_agg, -2147483648LL);
  runner::apply_param(cfg, "queue_limit_bytes", -0x1p63);
  EXPECT_EQ(cfg.topology.queue_limit_bytes, INT64_MIN);
  runner::apply_param(cfg, "fluid_threshold_bytes", 300000);
  EXPECT_EQ(cfg.fluid.threshold_bytes, 300000);
  runner::apply_param(cfg, "tau", 0.5);  // a real takes any value
  EXPECT_EQ(cfg.params.tau, 0.5);
}

// -------------------------------------------------------------- moments --

TEST(Aggregate, MomentsKnownValues) {
  const stats::Moments m = stats::compute_moments({2.0, 4.0, 4.0, 4.0, 6.0});
  EXPECT_EQ(m.n, 5u);
  EXPECT_DOUBLE_EQ(m.mean, 4.0);
  EXPECT_NEAR(m.stddev, 1.4142135623730951, 1e-12);  // sample (n-1) stddev
  EXPECT_NEAR(m.ci95_half, 1.96 * m.stddev / std::sqrt(5.0), 1e-12);
  EXPECT_EQ(m.min, 2.0);
  EXPECT_EQ(m.max, 6.0);

  const stats::Moments single = stats::compute_moments({3.5});
  EXPECT_EQ(single.n, 1u);
  EXPECT_EQ(single.mean, 3.5);
  EXPECT_EQ(single.stddev, 0.0);
  EXPECT_EQ(single.ci95_half, 0.0);

  const stats::Moments empty = stats::compute_moments({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_EQ(empty.mean, 0.0);
}

}  // namespace
