// Churn subsystem tests: the deterministic failure schedule, the injector's
// nested-outage semantics, and the failure-window edge cases from
// docs/scenarios.md — a flow landing on a server that died inside the
// selection-to-start control window, a trunk failing mid-flow in fluid
// mode (must re-rate, not strand the completion), and repair completions
// coinciding with an RA epoch boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/churn.h"
#include "core/cloud.h"
#include "sim/failure_schedule.h"
#include "util/units.h"

namespace scda::core {
namespace {

using transport::FlowRecord;

// ---------------------------------------------------------------------------
// failure schedule (pure function)
// ---------------------------------------------------------------------------

sim::ChurnConfig stochastic_cfg() {
  sim::ChurnConfig cfg;
  cfg.enabled = true;
  cfg.server_mtbf_s = 20.0;
  cfg.server_mttr_s = 4.0;
  cfg.link_mtbf_s = 50.0;
  cfg.link_mttr_s = 2.0;
  cfg.horizon_s = 120.0;
  return cfg;
}

TEST(FailureSchedule, DeterministicSortedAndSeedSensitive) {
  const sim::ChurnConfig cfg = stochastic_cfg();
  const sim::ChurnShape shape{16, 4, 8};
  const auto a = sim::build_failure_schedule(cfg, shape, 42);
  const auto b = sim::build_failure_schedule(cfg, shape, 42);
  const auto c = sim::build_failure_schedule(cfg, shape, 43);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].index, b[i].index);
  }
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                             [](const sim::FailureEvent& x,
                                const sim::FailureEvent& y) {
                               return x.at < y.at;
                             }));
  // A different seed shifts at least one transition time.
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].at != c[i].at || a[i].index != c[i].index;
  EXPECT_TRUE(differs);
}

TEST(FailureSchedule, PerEntityRenewalAlternatesDownUp) {
  const sim::ChurnConfig cfg = stochastic_cfg();
  const auto events = sim::build_failure_schedule(cfg, {8, 0, 8}, 7);
  for (std::int32_t s = 0; s < 8; ++s) {
    bool down = false;
    for (const sim::FailureEvent& ev : events) {
      if (ev.index != s) continue;
      if (ev.kind == sim::FailureKind::kServerDown) {
        EXPECT_FALSE(down) << "double down for server " << s;
        down = true;
      } else {
        EXPECT_TRUE(down) << "up before down for server " << s;
        down = false;
      }
      EXPECT_LT(ev.at.seconds(), cfg.horizon_s);
    }
  }
}

TEST(FailureSchedule, EntityStreamsAreIndependent) {
  // Adding link churn must not perturb the server timelines (per-entity
  // RNG streams): the server events of both schedules are identical.
  sim::ChurnConfig no_links = stochastic_cfg();
  no_links.link_mtbf_s = 0.0;
  const auto with = sim::build_failure_schedule(stochastic_cfg(), {8, 4, 8}, 9);
  const auto without = sim::build_failure_schedule(no_links, {8, 4, 8}, 9);
  std::vector<sim::FailureEvent> sa, sb;
  for (const auto& e : with)
    if (e.kind == sim::FailureKind::kServerDown ||
        e.kind == sim::FailureKind::kServerUp)
      sa.push_back(e);
  for (const auto& e : without)
    if (e.kind == sim::FailureKind::kServerDown ||
        e.kind == sim::FailureKind::kServerUp)
      sb.push_back(e);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].at, sb[i].at);
    EXPECT_EQ(sa[i].index, sb[i].index);
  }
}

TEST(FailureSchedule, ScriptedPodExpandsToItsServers) {
  sim::ChurnConfig cfg;
  cfg.enabled = true;  // stochastic processes off: only the script
  cfg.scripted.push_back({30.0, sim::ScriptedFailure::Target::kPod, 1, 20.0});
  const auto events = sim::build_failure_schedule(cfg, {32, 4, 8}, 1);
  // Pod 1 = servers 8..15, one down+up pair each.
  ASSERT_EQ(events.size(), 16u);
  for (const auto& ev : events) {
    EXPECT_GE(ev.index, 8);
    EXPECT_LT(ev.index, 16);
    if (ev.kind == sim::FailureKind::kServerDown)
      EXPECT_DOUBLE_EQ(ev.at.seconds(), 30.0);
    else
      EXPECT_DOUBLE_EQ(ev.at.seconds(), 50.0);
  }
}

TEST(FailureSchedule, PermanentAndOutOfRangeScripts) {
  sim::ChurnConfig cfg;
  cfg.enabled = true;
  cfg.scripted.push_back(
      {10.0, sim::ScriptedFailure::Target::kServer, 3, 0.0});  // permanent
  cfg.scripted.push_back(
      {10.0, sim::ScriptedFailure::Target::kServer, 99, 5.0});  // out of range
  const auto events = sim::build_failure_schedule(cfg, {8, 0, 8}, 1);
  ASSERT_EQ(events.size(), 1u);  // no up event, invalid index dropped
  EXPECT_EQ(events[0].kind, sim::FailureKind::kServerDown);
  EXPECT_EQ(events[0].index, 3);
}

// ---------------------------------------------------------------------------
// schedule oracle: build_failure_schedule against the full-engine renewal
// ---------------------------------------------------------------------------

/// Reference renewal of one entity, drawing through sim::Rng, a fully
/// seeded std::mt19937_64, as the schedule did before Mt64Prefix. Returns
/// the number of draws the entity made.
int reference_renewal(std::vector<sim::FailureEvent>& out, std::uint64_t seed,
                      std::uint64_t tag, std::int32_t index, double mtbf_s,
                      double mttr_s, double horizon_s, sim::FailureKind down,
                      sim::FailureKind up) {
  if (mtbf_s <= 0.0 || horizon_s <= 0.0) return 0;
  const std::uint64_t key =
      (tag << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(index));
  sim::Rng rng(sim::churn_mix(seed ^ sim::churn_mix(key)));
  int draws = 1;
  double t = rng.exponential(mtbf_s);
  while (t < horizon_s) {
    out.push_back({sim::secs(t), down, index});
    if (mttr_s > 0.0) ++draws;
    t += mttr_s > 0.0 ? rng.exponential(mttr_s) : 0.0;
    if (t >= horizon_s) break;
    out.push_back({sim::secs(t), up, index});
    ++draws;
    t += rng.exponential(mtbf_s);
  }
  return draws;
}

/// The reference schedule and the most draws any one entity made. Scripted
/// rows come from the production expansion with the stochastic processes
/// off (horizon 0), so only the renewal draws differ from the code under
/// test.
std::pair<std::vector<sim::FailureEvent>, int> reference_schedule(
    const sim::ChurnConfig& cfg, const sim::ChurnShape& shape,
    std::uint64_t seed) {
  sim::ChurnConfig scripted_only = cfg;
  scripted_only.horizon_s = 0.0;
  std::vector<sim::FailureEvent> out =
      sim::build_failure_schedule(scripted_only, shape, seed);
  int max_draws = 0;
  if (!cfg.enabled) return {out, max_draws};
  const auto renew = [&](std::uint64_t tag, std::int32_t n, double mtbf_s,
                         double mttr_s, sim::FailureKind down,
                         sim::FailureKind up) {
    for (std::int32_t i = 0; i < n; ++i)
      max_draws = std::max(max_draws,
                           reference_renewal(out, seed, tag, i, mtbf_s, mttr_s,
                                             cfg.horizon_s, down, up));
  };
  renew(1, shape.n_servers, cfg.server_mtbf_s, cfg.server_mttr_s,
        sim::FailureKind::kServerDown, sim::FailureKind::kServerUp);
  renew(2, shape.n_links, cfg.link_mtbf_s, cfg.link_mttr_s,
        sim::FailureKind::kLinkDown, sim::FailureKind::kLinkUp);
  renew(3, shape.n_nns, cfg.nns_mtbf_s, cfg.nns_mttr_s,
        sim::FailureKind::kNnsDown, sim::FailureKind::kNnsUp);
  std::sort(out.begin(), out.end(),
            [](const sim::FailureEvent& a, const sim::FailureEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.index < b.index;
            });
  return {out, max_draws};
}

void expect_same_schedule(const std::vector<sim::FailureEvent>& got,
                          const std::vector<sim::FailureEvent>& want,
                          int pair) {
  ASSERT_EQ(got.size(), want.size()) << "pair " << pair;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].at, want[i].at) << "pair " << pair << " event " << i;
    ASSERT_EQ(got[i].kind, want[i].kind) << "pair " << pair << " event " << i;
    ASSERT_EQ(got[i].index, want[i].index) << "pair " << pair << " event "
                                           << i;
  }
}

/// A seeded (config, census) pair. Some classes are off (MTBF 0), some
/// repair instantly (MTTR 0), and some fail often enough, relative to the
/// horizon, to draw past the 156-draw prefix and the 312-draw second twist.
std::pair<sim::ChurnConfig, sim::ChurnShape> random_churn(sim::Rng& rng) {
  sim::ChurnShape shape;
  shape.n_servers = static_cast<std::int32_t>(rng.uniform_int(0, 40));
  shape.n_links = static_cast<std::int32_t>(rng.uniform_int(0, 8));
  shape.servers_per_pod = static_cast<std::int32_t>(rng.uniform_int(0, 12));
  shape.n_nns = static_cast<std::int32_t>(rng.uniform_int(0, 8));

  sim::ChurnConfig cfg;
  cfg.enabled = !rng.bernoulli(0.05);
  const double horizons[] = {0.0, 15.0, 60.0, 120.0};
  cfg.horizon_s = horizons[rng.uniform_int(0, 3)];
  const auto mtbf = [&rng] {
    const double u = rng.uniform();
    if (u < 0.2) return 0.0;
    if (u < 0.45) return rng.uniform(0.2, 1.0);  // hundreds of draws
    return rng.uniform(2.0, 200.0);
  };
  const auto mttr = [&rng] {
    return rng.bernoulli(0.25) ? 0.0 : rng.uniform(0.01, 10.0);
  };
  cfg.server_mtbf_s = mtbf();
  cfg.server_mttr_s = mttr();
  cfg.link_mtbf_s = mtbf();
  cfg.link_mttr_s = mttr();
  cfg.nns_mtbf_s = mtbf();
  cfg.nns_mttr_s = mttr();

  const auto scripted = rng.uniform_int(0, 3);
  for (std::int64_t k = 0; k < scripted; ++k) {
    sim::ScriptedFailure f;
    f.target = static_cast<sim::ScriptedFailure::Target>(rng.uniform_int(0, 3));
    f.index = static_cast<std::int32_t>(rng.uniform_int(-1, 12));
    f.at_s = rng.uniform(-1.0, 130.0);
    f.duration_s = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 30.0);
    cfg.scripted.push_back(f);
  }
  return {cfg, shape};
}

TEST(FailureScheduleOracle, MatchesFullEngineOnSeededConfigs) {
  sim::Rng rng(2013);
  int max_draws = 0;
  for (int pair = 0; pair < 200; ++pair) {
    const auto [cfg, shape] = random_churn(rng);
    const auto seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    const auto [want, draws] = reference_schedule(cfg, shape, seed);
    max_draws = std::max(max_draws, draws);
    expect_same_schedule(sim::build_failure_schedule(cfg, shape, seed), want,
                         pair);
  }
  // The pairs reach past the hand-over to the real engine at draw 156 and
  // past its second twist at draw 312.
  EXPECT_GT(max_draws, 312);
}

/// churn-storage's churn (perfbench/workloads.cpp): server MTBF 100 s,
/// MTTR 5 s, a 15 s horizon and three scripted NNS outages.
sim::ChurnConfig churn_storage_cfg() {
  sim::ChurnConfig cfg;
  cfg.enabled = true;
  cfg.server_mtbf_s = 100.0;
  cfg.server_mttr_s = 5.0;
  cfg.horizon_s = 15.0;
  using Target = sim::ScriptedFailure::Target;
  cfg.scripted = {{2.0, Target::kNns, 0, 4.0},
                  {4.0, Target::kNns, 5, 5.0},
                  {6.0, Target::kNns, 1, 1.5}};
  return cfg;
}

TEST(FailureScheduleOracle, MatchesFullEngineOnBenchmarkCensuses) {
  // churn-storage's census: the paper's tree (160 servers under 20 ToRs,
  // 40 per pod) and 8 NNS instances.
  const sim::ChurnConfig storage = churn_storage_cfg();
  // fluid-scale's 1,024-server tree (64 ToRs, 128 servers per pod), with
  // trunk and NNS churn on as well, so every class is seeded in blocks.
  sim::ChurnConfig large = churn_storage_cfg();
  large.link_mtbf_s = 40.0;
  large.link_mttr_s = 2.0;
  large.nns_mtbf_s = 30.0;
  large.nns_mttr_s = 3.0;
  const std::pair<sim::ChurnConfig, sim::ChurnShape> censuses[] = {
      {storage, {160, 20, 40, 8}}, {large, {1024, 64, 128, 8}}};
  int pair = 0;
  for (const auto& [cfg, shape] : censuses) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed, ++pair) {
      const auto want = reference_schedule(cfg, shape, seed).first;
      // More than the scripted outages' six events: the renewals drew.
      ASSERT_GT(want.size(), 6u) << "census " << shape.n_servers;
      expect_same_schedule(sim::build_failure_schedule(cfg, shape, seed),
                           want, pair);
    }
  }
}

// ---------------------------------------------------------------------------
// churn input validation
// ---------------------------------------------------------------------------

/// The message parse_kill_specs throws for `specs`, or "" if it parses.
std::string kill_error(const std::string& specs) {
  try {
    (void)sim::parse_kill_specs(specs);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(FailureSchedule, KillSpecsRejectNonFiniteAndOutOfRange) {
  // Each rejection names its spec, also when it follows a good one.
  for (const char* bad :
       {"server:1@inf", "server:1@nan", "server:1@-inf", "server:1@1e300",
        "server:1@1+nan", "server:1@1+inf", "server:1@9e9+9e9",
        "server:3e10@1", "server:2147483648@1", "nns:nan@1", "pod:inf@1"}) {
    const std::string error = kill_error(std::string("server:0@1,") + bad);
    EXPECT_NE(error.find(std::string("'") + bad + "'"), std::string::npos)
        << bad << ": " << error;
  }
  EXPECT_NE(kill_error("server:1@nan").find("finite"), std::string::npos);
  EXPECT_NE(kill_error("server:3e10@1").find("integer"), std::string::npos);
  // Large but representable: ~285 years, and the largest index.
  EXPECT_EQ(kill_error("server:2147483647@9e9+1e6"), "");
}

TEST(FailureSchedule, ValidationRejectsNonFiniteConfigs) {
  const sim::ChurnShape shape{16, 4, 8, 8};
  EXPECT_NO_THROW(sim::validate_churn(churn_storage_cfg(), shape));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  using Field = double sim::ChurnConfig::*;
  for (const Field field :
       {&sim::ChurnConfig::server_mtbf_s, &sim::ChurnConfig::server_mttr_s,
        &sim::ChurnConfig::link_mtbf_s, &sim::ChurnConfig::link_mttr_s,
        &sim::ChurnConfig::nns_mtbf_s, &sim::ChurnConfig::nns_mttr_s,
        &sim::ChurnConfig::horizon_s}) {
    for (const double bad : {kInf, -kInf, kNan}) {
      // Validated only: with an MTBF > 0, building the schedule over an
      // infinite horizon would never end.
      sim::ChurnConfig cfg = churn_storage_cfg();
      cfg.*field = bad;
      EXPECT_THROW(sim::validate_churn(cfg, shape), std::invalid_argument);
    }
  }
  sim::ChurnConfig cfg = churn_storage_cfg();
  cfg.horizon_s = 1e300;
  EXPECT_THROW(sim::validate_churn(cfg, shape), std::invalid_argument);

  using Target = sim::ScriptedFailure::Target;
  const auto scripted = [&shape](double at_s, double duration_s) {
    sim::ChurnConfig c = churn_storage_cfg();
    c.scripted.push_back({at_s, Target::kServer, 3, duration_s});
    sim::validate_churn(c, shape);
  };
  EXPECT_THROW(scripted(kNan, 1.0), std::invalid_argument);
  EXPECT_THROW(scripted(kInf, 1.0), std::invalid_argument);
  EXPECT_THROW(scripted(1.0, kNan), std::invalid_argument);
  EXPECT_THROW(scripted(1.0, kInf), std::invalid_argument);
  EXPECT_THROW(scripted(1.0, -kInf), std::invalid_argument);
  EXPECT_THROW(scripted(1e300, 0.0), std::invalid_argument);
  EXPECT_THROW(scripted(9e9, 9e9), std::invalid_argument);
  EXPECT_NO_THROW(scripted(9e9, -1e300));  // permanent: only at_s converts
  // A negative time is still dropped, not rejected, however far back.
  EXPECT_NO_THROW(scripted(-1e300, 5.0));
  sim::ChurnConfig dropped;
  dropped.enabled = true;
  dropped.scripted.push_back({-1e300, Target::kServer, 3, 5.0});
  EXPECT_TRUE(sim::build_failure_schedule(dropped, shape, 1).empty());
}

// ---------------------------------------------------------------------------
// cloud-level churn
// ---------------------------------------------------------------------------

class ChurnTest : public ::testing::Test {
 protected:
  void build(CloudConfig cfg, std::uint64_t seed = 5) {
    cloud_.reset();  // before the simulator it posts into
    cfg.topology.n_agg = 2;
    cfg.topology.tors_per_agg = 2;
    cfg.topology.servers_per_tor = 4;
    cfg.topology.n_clients = 8;
    cfg.topology.base_bps = util::mbps(200);
    sim_ = std::make_unique<sim::Simulator>(seed);
    cloud_ = std::make_unique<Cloud>(*sim_, cfg);
    cloud_->add_completion_callback(
        [this](const FlowRecord& rec, const CloudOp& op) {
          done_.push_back({rec, op});
        });
  }

  [[nodiscard]] std::size_t completed(CloudOp::Kind kind) const {
    std::size_t n = 0;
    for (const auto& [rec, op] : done_)
      if (op.kind == kind) ++n;
    return n;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<Cloud> cloud_;
  std::vector<std::pair<FlowRecord, CloudOp>> done_;
};

TEST_F(ChurnTest, InjectorAppliesScriptedOutageAndRecovers) {
  CloudConfig cfg;
  cfg.churn.enabled = true;
  cfg.churn.scripted.push_back(
      {1.0, sim::ScriptedFailure::Target::kServer, 2, 2.0});
  build(cfg);
  ASSERT_NE(cloud_->churn(), nullptr);
  EXPECT_EQ(cloud_->churn()->schedule().size(), 2u);

  sim_->run_until(sim::secs(2.0));
  EXPECT_TRUE(cloud_->servers()[2].failed());
  sim_->run_until(sim::secs(4.0));
  EXPECT_FALSE(cloud_->servers()[2].failed());
  EXPECT_EQ(cloud_->churn()->stats().server_downs, 1u);
  EXPECT_EQ(cloud_->churn()->stats().server_ups, 1u);
}

TEST_F(ChurnTest, OutOfRangeScriptedServerRejectsTheCloud) {
  // 16 servers: index 16 and index -1 are both out of range, so the
  // Cloud's ChurnInjector throws instead of dropping the row.
  CloudConfig cfg;
  cfg.churn.enabled = true;
  cfg.churn.scripted.push_back(
      {1.0, sim::ScriptedFailure::Target::kServer, 16, 2.0});
  EXPECT_THROW(build(cfg), std::invalid_argument);
  cfg.churn.scripted.back().index = -1;
  EXPECT_THROW(build(cfg), std::invalid_argument);
  cfg.churn.scripted.back().index = 15;
  build(cfg);
  EXPECT_EQ(cloud_->churn()->schedule().size(), 2u);
}

TEST_F(ChurnTest, NonFiniteChurnRejectsTheCloud) {
  // A NaN duration would make the outage silently permanent, and a NaN
  // MTTR every repair silently instant: the Cloud refuses both before it
  // posts any event.
  CloudConfig cfg;
  cfg.churn.enabled = true;
  cfg.churn.scripted.push_back(
      {1.0, sim::ScriptedFailure::Target::kServer, 2,
       std::numeric_limits<double>::quiet_NaN()});
  EXPECT_THROW(build(cfg), std::invalid_argument);
  cfg.churn.scripted.clear();
  cfg.churn.server_mtbf_s = 5.0;
  cfg.churn.server_mttr_s = std::numeric_limits<double>::quiet_NaN();
  cfg.churn.horizon_s = 10.0;
  EXPECT_THROW(build(cfg), std::invalid_argument);
}

TEST_F(ChurnTest, NestedOutagesNeverDoubleFailOrEarlyRecover) {
  CloudConfig cfg;
  cfg.churn.enabled = true;
  // Overlapping scripted outages of the same server: [1, 5) and [2, 3).
  cfg.churn.scripted.push_back(
      {1.0, sim::ScriptedFailure::Target::kServer, 0, 4.0});
  cfg.churn.scripted.push_back(
      {2.0, sim::ScriptedFailure::Target::kServer, 0, 1.0});
  build(cfg);

  sim_->run_until(sim::secs(3.5));
  // Inner outage ended at t=3 but the outer one holds the server down.
  EXPECT_TRUE(cloud_->servers()[0].failed());
  sim_->run_until(sim::secs(6.0));
  EXPECT_FALSE(cloud_->servers()[0].failed());
  EXPECT_EQ(cloud_->churn()->stats().server_downs, 1u);
  EXPECT_EQ(cloud_->churn()->stats().server_ups, 1u);
}

TEST_F(ChurnTest, FlowArrivingOnDownServerRegistersNoReplica) {
  // The NNS picks a write target, then the target dies inside the
  // selection-to-start control window. The data flow still runs (packet
  // arrival at a dead block server), but nothing may be registered: no
  // replica entry, and the client sees a failed write.
  build(CloudConfig{});
  cloud_->write(0, 1, util::megabytes(1));

  // Step until the decision happened (the target stored the block) but the
  // data flow has not started yet, then kill the chosen server.
  std::int32_t target = -1;
  for (int step = 1; step <= 500 && target < 0; ++step) {
    sim_->run_until(sim::secs(step * 1e-3));
    for (std::size_t s = 0; s < cloud_->servers().size(); ++s)
      if (cloud_->servers()[s].has(1)) target = static_cast<std::int32_t>(s);
  }
  ASSERT_GE(target, 0);
  ASSERT_EQ(cloud_->transports().records().size(), 0u)
      << "data flow started before the control window closed";
  cloud_->fail_server(static_cast<std::size_t>(target), false);

  sim_->run_until(sim::secs(20.0));
  const auto* meta = cloud_->fes().dispatch_by_content(1).find(1);
  ASSERT_NE(meta, nullptr);
  EXPECT_TRUE(meta->replicas.empty());
  EXPECT_EQ(cloud_->failed_writes(), 1u);
  EXPECT_EQ(completed(CloudOp::Kind::kReplication), 0u);
  // The failed write released the content id: a retry succeeds.
  EXPECT_TRUE(cloud_->write(1, 1, util::megabytes(1)));
  sim_->run_until(sim::secs(40.0));
  meta = cloud_->fes().dispatch_by_content(1).find(1);
  EXPECT_FALSE(meta->replicas.empty());
}

TEST_F(ChurnTest, ServerFailureMidReadFailsOverToSurvivor) {
  build(CloudConfig{});
  cloud_->write(0, 1, util::megabytes(4));
  sim_->run_until(sim::secs(10.0));
  const auto* meta = cloud_->fes().dispatch_by_content(1).find(1);
  ASSERT_NE(meta, nullptr);
  ASSERT_EQ(meta->replicas.size(), 2u);

  cloud_->read(1, 1);
  sim_->run_until(sim::secs(10.2));  // read flow in flight
  ASSERT_EQ(completed(CloudOp::Kind::kRead), 0u);
  // Find the read's source server and kill it mid-flow.
  std::int32_t source = -1;
  for (const auto r : meta->replicas)
    if (cloud_->servers()[static_cast<std::size_t>(r)].active_flows() > 0)
      source = r;
  ASSERT_GE(source, 0);
  cloud_->fail_server(static_cast<std::size_t>(source), false);

  sim_->run_until(sim::secs(30.0));
  EXPECT_EQ(completed(CloudOp::Kind::kRead), 1u);
  EXPECT_EQ(cloud_->failed_reads(), 0u);
  EXPECT_GE(cloud_->churn_stats().failovers, 1u);
  EXPECT_GE(cloud_->churn_stats().aborted_flows, 1u);
}

TEST_F(ChurnTest, LinkFailureMidFluidFlowParksThenCompletes) {
  CloudConfig cfg;
  cfg.fluid.enabled = true;
  cfg.fluid.threshold_bytes = 1000;  // everything runs on the fluid engine
  cfg.enable_replication = false;
  build(cfg);
  cloud_->write(0, 1, util::megabytes(8));
  sim_->run_until(sim::secs(0.3));  // control window over, flow in flight
  ASSERT_EQ(cloud_->transports().records().size(), 1u);
  ASSERT_EQ(completed(CloudOp::Kind::kWrite), 0u);

  // Cut the target server's ToR trunk (both directions, like the injector).
  const auto* meta_none = cloud_->fes().dispatch_by_content(1).find(1);
  ASSERT_NE(meta_none, nullptr);  // metadata exists; replicas still empty
  std::int32_t target = -1;
  for (std::size_t s = 0; s < cloud_->servers().size(); ++s)
    if (cloud_->servers()[s].has(1)) target = static_cast<std::int32_t>(s);
  ASSERT_GE(target, 0);
  const auto tor = static_cast<std::size_t>(
      target / cloud_->topology().config().servers_per_tor);
  cloud_->set_link_up(cloud_->topology().tor_uplink(tor), false,
                      /*propagate=*/false);
  cloud_->set_link_up(cloud_->topology().tor_downlink(tor), false,
                      /*propagate=*/true);

  // The fluid flow must park (no completion while the trunk is down) —
  // a stranded stale completion event would fire in here.
  sim_->run_until(sim::secs(5.0));
  EXPECT_EQ(completed(CloudOp::Kind::kWrite), 0u);

  cloud_->set_link_up(cloud_->topology().tor_uplink(tor), true,
                      /*propagate=*/false);
  cloud_->set_link_up(cloud_->topology().tor_downlink(tor), true,
                      /*propagate=*/true);
  sim_->run_until(sim::secs(30.0));
  EXPECT_EQ(completed(CloudOp::Kind::kWrite), 1u);
  const auto* meta = cloud_->fes().dispatch_by_content(1).find(1);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->replicas.size(), 1u);
}

TEST_F(ChurnTest, RepairCompletingOnEpochBoundaryKeepsAccounting) {
  // Zero control latencies pin the whole repair pipeline to RA epoch
  // boundaries: drain_repair_queue() runs inside control_tick(), the NNS
  // decision and the flow start are immediate, and the fluid engine
  // computes the completion analytically — so repair starts land exactly
  // on k*tau and completions land on (or within 1 ns of) an epoch edge.
  // The accounting must survive the coincidence: slots freed by the
  // completion are visible to the drain pass of the same instant or the
  // next one, never double-started, never leaked.
  CloudConfig cfg;
  cfg.fluid.enabled = true;
  cfg.fluid.threshold_bytes = 1000;
  cfg.enable_replication = true;
  cfg.params.replicas = 2;
  cfg.params.max_concurrent_repairs = 1;  // force queueing behind the slot
  cfg.params.ctrl_dc_latency_s = 0.0;
  cfg.params.ctrl_wan_latency_s = 0.0;
  cfg.params.nns_service_time_s = 0.0;
  build(cfg);

  cloud_->write(0, 1, util::megabytes(2));
  cloud_->write(1, 2, util::megabytes(2));
  sim_->run_until(sim::secs(10.0));
  ASSERT_EQ(completed(CloudOp::Kind::kReplication), 2u);

  // Fail one server holding copies: its contents queue for repair and
  // drain one at a time through the single slot.
  const auto* m1 = cloud_->fes().dispatch_by_content(1).find(1);
  ASSERT_NE(m1, nullptr);
  cloud_->fail_server(static_cast<std::size_t>(m1->replicas.front()), true);
  sim_->run_until(sim::secs(40.0));

  EXPECT_EQ(cloud_->repairs_in_flight(), 0);
  EXPECT_EQ(cloud_->repair_queue_depth(), 0u);
  const ChurnStats& ch = cloud_->churn_stats();
  EXPECT_GE(ch.repair_flows_completed, 1u);
  EXPECT_EQ(ch.repair_flows_started,
            ch.repair_flows_completed + ch.repair_retries);
  // Replication factor restored everywhere on live servers.
  for (const ContentId id : {ContentId{1}, ContentId{2}}) {
    const auto* meta = cloud_->fes().dispatch_by_content(id).find(id);
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->replicas.size(), 2u);
    for (const auto r : meta->replicas)
      EXPECT_FALSE(cloud_->servers()[static_cast<std::size_t>(r)].failed());
  }
}

TEST_F(ChurnTest, UnderReplicatedClockIntegratesOutageWindow) {
  CloudConfig cfg;
  cfg.enable_replication = true;
  cfg.params.replicas = 2;
  build(cfg);
  cloud_->write(0, 1, util::megabytes(1));
  sim_->run_until(sim::secs(10.0));
  ASSERT_EQ(completed(CloudOp::Kind::kReplication), 1u);
  EXPECT_DOUBLE_EQ(cloud_->under_replicated_seconds(), 0.0);

  const auto* meta = cloud_->fes().dispatch_by_content(1).find(1);
  cloud_->fail_server(static_cast<std::size_t>(meta->replicas.front()), true);
  EXPECT_EQ(cloud_->under_replicated_objects(), 1);
  sim_->run_until(sim::secs(40.0));  // repair restores k=2
  meta = cloud_->fes().dispatch_by_content(1).find(1);
  ASSERT_EQ(meta->replicas.size(), 2u);
  EXPECT_EQ(cloud_->under_replicated_objects(), 0);
  const double under = cloud_->under_replicated_seconds();
  EXPECT_GT(under, 0.0);
  EXPECT_LT(under, 30.0);
  // The clock is frozen once the object is healthy again.
  sim_->run_until(sim::secs(50.0));
  EXPECT_DOUBLE_EQ(cloud_->under_replicated_seconds(), under);
}

TEST_F(ChurnTest, StochasticChurnRunIsDeterministic) {
  // Same seed, same config -> byte-identical churn accounting; this is the
  // unit-level form of the replay_sweep_churn_matches_artifact check.
  auto run = [](std::uint64_t seed) {
    CloudConfig cfg;
    cfg.enable_replication = true;
    cfg.churn.enabled = true;
    cfg.churn.server_mtbf_s = 10.0;
    cfg.churn.server_mttr_s = 2.0;
    cfg.churn.horizon_s = 30.0;
    cfg.topology.n_agg = 2;
    cfg.topology.tors_per_agg = 2;
    cfg.topology.servers_per_tor = 4;
    cfg.topology.n_clients = 8;
    cfg.topology.base_bps = util::mbps(200);
    sim::Simulator sim(seed);
    Cloud cloud(sim, cfg);
    for (int i = 0; i < 10; ++i)
      cloud.write(static_cast<std::size_t>(i % 8), i + 1,
                  util::kilobytes(256));
    sim.run_until(sim::secs(30.0));
    const ChurnStats& ch = cloud.churn_stats();
    return std::tuple{ch.aborted_flows, ch.repair_flows_completed,
                      ch.failovers, cloud.under_replicated_seconds(),
                      cloud.churn()->stats().server_downs};
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(std::get<4>(run(11)), 0u);
}

}  // namespace
}  // namespace scda::core
