// Metadata-plane fault tolerance tests (docs/scenarios.md): the NNS
// failure schedule streams, the --kill spec parser/validator, standby
// failover with client-side timeout/retry, recovery re-sync, mirror
// currency, and the proactive rebalancer. The central contract under
// test: a scripted NNS outage completes with zero lost requests, and
// with NNS churn off the historical event sequence is untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/churn.h"
#include "core/cloud.h"
#include "sim/failure_schedule.h"
#include "util/units.h"

namespace scda::core {
namespace {

using transport::FlowRecord;

// ---------------------------------------------------------------------------
// failure schedule: the tag-3 NNS renewal streams
// ---------------------------------------------------------------------------

TEST(NnsFailureSchedule, StreamsIndependentOfServerAndLinkStreams) {
  // Turning NNS churn on must not perturb the server/link timelines —
  // otherwise existing committed churn artifacts would shift.
  sim::ChurnConfig base;
  base.enabled = true;
  base.server_mtbf_s = 20.0;
  base.server_mttr_s = 4.0;
  base.link_mtbf_s = 50.0;
  base.link_mttr_s = 2.0;
  base.horizon_s = 120.0;
  sim::ChurnConfig with_nns = base;
  with_nns.nns_mtbf_s = 15.0;
  with_nns.nns_mttr_s = 3.0;

  const sim::ChurnShape shape{16, 4, 8, 8};
  const auto a = sim::build_failure_schedule(base, shape, 42);
  const auto b = sim::build_failure_schedule(with_nns, shape, 42);
  const auto not_nns = [](const sim::FailureEvent& e) {
    return e.kind != sim::FailureKind::kNnsDown &&
           e.kind != sim::FailureKind::kNnsUp;
  };
  std::vector<sim::FailureEvent> sb;
  for (const auto& e : b)
    if (not_nns(e)) sb.push_back(e);
  ASSERT_EQ(a.size(), sb.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, sb[i].at);
    EXPECT_EQ(a[i].kind, sb[i].kind);
    EXPECT_EQ(a[i].index, sb[i].index);
  }
  // And the NNS stream actually produced events over all 8 instances' tag.
  EXPECT_GT(b.size(), a.size());
}

TEST(NnsFailureSchedule, ScriptedNnsExpandsToDownUpPair) {
  sim::ChurnConfig cfg;
  cfg.enabled = true;
  cfg.scripted.push_back({30.0, sim::ScriptedFailure::Target::kNns, 1, 20.0});
  const auto events = sim::build_failure_schedule(cfg, {16, 4, 8, 8}, 1);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, sim::FailureKind::kNnsDown);
  EXPECT_EQ(events[0].index, 1);
  EXPECT_DOUBLE_EQ(events[0].at.seconds(), 30.0);
  EXPECT_EQ(events[1].kind, sim::FailureKind::kNnsUp);
  EXPECT_DOUBLE_EQ(events[1].at.seconds(), 50.0);
}

TEST(NnsFailureSchedule, ChurnConfiguredGate) {
  sim::ChurnConfig cfg;
  EXPECT_FALSE(sim::nns_churn_configured(cfg));  // churn off entirely
  cfg.enabled = true;
  EXPECT_FALSE(sim::nns_churn_configured(cfg));  // no NNS stream or script
  cfg.server_mtbf_s = 10.0;  // server churn alone does not enable it
  EXPECT_FALSE(sim::nns_churn_configured(cfg));
  cfg.nns_mtbf_s = 5.0;
  EXPECT_TRUE(sim::nns_churn_configured(cfg));
  cfg.nns_mtbf_s = 0.0;
  cfg.scripted.push_back({10.0, sim::ScriptedFailure::Target::kNns, 0, 1.0});
  EXPECT_TRUE(sim::nns_churn_configured(cfg));
  cfg.enabled = false;  // master switch wins over the script
  EXPECT_FALSE(sim::nns_churn_configured(cfg));
}

// ---------------------------------------------------------------------------
// --kill spec parsing + census validation (satellite: parse-time errors)
// ---------------------------------------------------------------------------

TEST(ParseKillSpecs, ParsesAllTargetsAndOptionalDuration) {
  const auto specs =
      sim::parse_kill_specs("server:3@30+5,pod:0@30+20,link:2@1,nns:1@10+2");
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].target, sim::ScriptedFailure::Target::kServer);
  EXPECT_EQ(specs[0].index, 3);
  EXPECT_DOUBLE_EQ(specs[0].at_s, 30.0);
  EXPECT_DOUBLE_EQ(specs[0].duration_s, 5.0);
  EXPECT_EQ(specs[1].target, sim::ScriptedFailure::Target::kPod);
  EXPECT_EQ(specs[2].target, sim::ScriptedFailure::Target::kLink);
  EXPECT_DOUBLE_EQ(specs[2].duration_s, 0.0);  // permanent outage
  EXPECT_EQ(specs[3].target, sim::ScriptedFailure::Target::kNns);
  EXPECT_EQ(specs[3].index, 1);
  EXPECT_TRUE(sim::parse_kill_specs("").empty());
}

TEST(ParseKillSpecs, RejectsMalformedSpecsAtParseTime) {
  EXPECT_THROW((void)sim::parse_kill_specs("disk:0@10"),
               std::invalid_argument);  // unknown target
  EXPECT_THROW((void)sim::parse_kill_specs("server:x@10"),
               std::invalid_argument);  // non-numeric index
  EXPECT_THROW((void)sim::parse_kill_specs("server:1.5@10"),
               std::invalid_argument);  // fractional index
  EXPECT_THROW((void)sim::parse_kill_specs("server:1@10+3x"),
               std::invalid_argument);  // trailing junk after duration
  EXPECT_THROW((void)sim::parse_kill_specs("server:1"),
               std::invalid_argument);  // missing @time
  EXPECT_THROW((void)sim::parse_kill_specs("nns:-1@10"),
               std::invalid_argument);  // negative index
}

TEST(ParseKillSpecs, ValidateScriptedRangeChecks) {
  const sim::ChurnShape shape{16, 4, 8, 8};  // 2 pods, 8 NNS instances
  const auto scripted = [](const std::string& specs) {
    sim::ChurnConfig cfg;
    cfg.enabled = true;
    cfg.scripted = sim::parse_kill_specs(specs);
    return cfg;
  };
  EXPECT_NO_THROW(sim::validate_churn(
      scripted("server:15@1,link:3@1,pod:1@1,nns:7@1"), shape));
  EXPECT_THROW(sim::validate_churn(scripted("nns:8@1"), shape),
               std::invalid_argument);
  EXPECT_THROW(sim::validate_churn(scripted("server:16@1"), shape),
               std::invalid_argument);
  EXPECT_THROW(sim::validate_churn(scripted("pod:2@1"), shape),
               std::invalid_argument);
  // parse_kill_specs rejects a negative index, but a scripted row built
  // in code reaches validate_churn (through ChurnInjector) as is.
  using Target = sim::ScriptedFailure::Target;
  for (const Target target :
       {Target::kServer, Target::kLink, Target::kPod, Target::kNns}) {
    sim::ChurnConfig cfg;
    cfg.scripted = {{1.0, target, -1, 0.0}};
    EXPECT_THROW(sim::validate_churn(cfg, shape), std::invalid_argument)
        << sim::to_string(target);
  }
}

// ---------------------------------------------------------------------------
// cloud-level failover / retry / resync / rebalance
// ---------------------------------------------------------------------------

class MetaFtTest : public ::testing::Test {
 protected:
  void build(CloudConfig cfg, std::uint64_t seed = 5) {
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

  /// Failover on without any schedule firing: a scripted NNS outage far
  /// beyond the test horizon flips nns_churn_configured(), so standbys
  /// exist and the timeout/retry path is active, but nothing fails unless
  /// the test calls fail_nns itself.
  static CloudConfig failover_only_cfg() {
    CloudConfig cfg;
    cfg.churn.enabled = true;
    cfg.churn.scripted.push_back(
        {1e6, sim::ScriptedFailure::Target::kNns, 0, 1.0});
    return cfg;
  }

  [[nodiscard]] std::size_t completed(CloudOp::Kind kind) const {
    std::size_t n = 0;
    for (const auto& [rec, op] : done_)
      if (op.kind == kind) ++n;
    return n;
  }

  [[nodiscard]] std::size_t shard_of(ContentId id) const {
    return cloud_->fes().dispatch_index(static_cast<std::uint64_t>(id));
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<Cloud> cloud_;
  std::vector<std::pair<FlowRecord, CloudOp>> done_;
};

TEST_F(MetaFtTest, FailoverLayerOffByDefault) {
  build(CloudConfig{});
  EXPECT_FALSE(cloud_->nns_failover_enabled());
  // Only the primaries exist: no standby instances, no mirror traffic.
  EXPECT_EQ(cloud_->nns_instance_count(), cloud_->fes().nns_count());
  cloud_->write(0, 1, util::megabytes(1));
  sim_->run_until(sim::secs(10.0));
  EXPECT_EQ(cloud_->meta_stats().mirror_updates, 0u);
}

TEST_F(MetaFtTest, StandbyServesWhileEveryPrimaryIsDown) {
  build(failover_only_cfg());
  ASSERT_TRUE(cloud_->nns_failover_enabled());
  const std::size_t n = cloud_->fes().nns_count();
  ASSERT_EQ(cloud_->nns_instance_count(), 2 * n);
  for (std::size_t i = 0; i < n; ++i) cloud_->fail_nns(i);

  for (int i = 0; i < 6; ++i)
    cloud_->write(static_cast<std::size_t>(i), i + 1, util::kilobytes(256));
  sim_->run_until(sim::secs(10.0));
  for (int i = 0; i < 6; ++i)
    cloud_->read(static_cast<std::size_t>(i), i + 1);
  sim_->run_until(sim::secs(30.0));

  EXPECT_EQ(completed(CloudOp::Kind::kWrite), 6u);
  EXPECT_EQ(completed(CloudOp::Kind::kRead), 6u);
  EXPECT_EQ(cloud_->failed_reads(), 0u);
  EXPECT_EQ(cloud_->failed_writes(), 0u);
  const MetadataStats& ms = cloud_->meta_stats();
  EXPECT_GE(ms.failovers, 12u);  // every request served by a standby
  EXPECT_EQ(ms.requests_dropped, 0u);
}

TEST_F(MetaFtTest, WholeShardDownRetriesUntilRecovery) {
  build(failover_only_cfg());
  const std::size_t n = cloud_->fes().nns_count();
  // Kill both replicas of every shard: no request can be served, the
  // client-side retry loop carries them across the outage window.
  for (std::size_t i = 0; i < 2 * n; ++i) cloud_->fail_nns(i);
  cloud_->write(0, 1, util::megabytes(1));
  sim_->run_until(sim::secs(0.15));
  EXPECT_EQ(completed(CloudOp::Kind::kWrite), 0u);
  const MetadataStats& ms = cloud_->meta_stats();
  EXPECT_GE(ms.unavailable, 1u);
  EXPECT_GE(ms.retries, 1u);
  // Recovery inside the retry budget: the queued request lands and the
  // write completes with nothing dropped. (Dead peer -> the recovering
  // node rejoins immediately, no sync flow to wait for.)
  for (std::size_t i = 0; i < n; ++i) cloud_->recover_nns(i);
  sim_->run_until(sim::secs(30.0));
  EXPECT_EQ(completed(CloudOp::Kind::kWrite), 1u);
  EXPECT_EQ(cloud_->meta_stats().requests_dropped, 0u);
  EXPECT_EQ(cloud_->failed_writes(), 0u);
}

TEST_F(MetaFtTest, AttemptExhaustionDropsRequestAndFailsOp) {
  build(failover_only_cfg());
  cloud_->write(0, 7, util::megabytes(1));
  sim_->run_until(sim::secs(10.0));
  ASSERT_EQ(completed(CloudOp::Kind::kWrite), 1u);

  // Permanently kill both instances of content 7's shard, then read it:
  // the request retries with backoff until the attempt cap and is dropped,
  // surfacing as a failed read — never a hung client.
  const std::size_t shard = shard_of(7);
  cloud_->fail_nns(shard);
  cloud_->fail_nns(shard + cloud_->fes().nns_count());
  cloud_->read(1, 7);
  sim_->run_until(sim::secs(30.0));
  const MetadataStats& ms = cloud_->meta_stats();
  EXPECT_GE(ms.requests_dropped, 1u);
  EXPECT_EQ(cloud_->failed_reads(), 1u);
  EXPECT_GE(ms.retries,
            static_cast<std::uint64_t>(
                cloud_->config().params.metadata_max_attempts - 1));
}

TEST_F(MetaFtTest, MirrorKeepsStandbyCurrent) {
  build(failover_only_cfg());
  cloud_->write(0, 7, util::megabytes(1));
  sim_->run_until(sim::secs(10.0));
  ASSERT_GE(completed(CloudOp::Kind::kWrite), 1u);

  const std::size_t shard = shard_of(7);
  NameNode& primary = cloud_->nns_instance(shard);
  NameNode& standby =
      cloud_->nns_instance(shard + cloud_->fes().nns_count());
  const ContentMeta* p = primary.find(7);
  const ContentMeta* s = standby.find(7);
  ASSERT_NE(p, nullptr);
  ASSERT_NE(s, nullptr);  // mirrored within a control latency of the write
  EXPECT_EQ(p->size_bytes, s->size_bytes);
  EXPECT_EQ(p->replicas, s->replicas);
  EXPECT_GE(cloud_->meta_stats().mirror_updates, 1u);
}

TEST_F(MetaFtTest, RepairUnderStandbyClearsUnderReplication) {
  // A replica holder dies, then the shard's primary: the repair lands on
  // the standby's copy of the metadata. The object is back at its target,
  // so it must leave the under-replicated count and stop its clock.
  CloudConfig cfg = failover_only_cfg();
  cfg.params.replicas = 2;
  build(cfg);
  cloud_->write(0, 7, util::megabytes(1));
  sim_->run_until(sim::secs(10.0));
  const std::size_t shard = shard_of(7);
  const ContentMeta* before = cloud_->nns_instance(shard).find(7);
  ASSERT_NE(before, nullptr);
  ASSERT_EQ(before->replicas.size(), 2u);

  cloud_->fail_server(static_cast<std::size_t>(before->replicas.front()));
  EXPECT_EQ(cloud_->under_replicated_objects(), 1);
  cloud_->fail_nns(shard);
  sim_->run_until(sim::secs(30.0));

  const ContentMeta* after =
      cloud_->nns_instance(shard + cloud_->fes().nns_count()).find(7);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->replicas.size(), 2u);
  EXPECT_EQ(cloud_->churn_stats().repair_flows_completed, 1u);
  EXPECT_EQ(cloud_->under_replicated_objects(), 0);
  EXPECT_GT(cloud_->under_replicated_seconds(), 0.0);
  EXPECT_LT(cloud_->under_replicated_seconds(), 5.0);
}

TEST_F(MetaFtTest, RecoveryResyncsFromPeerBeforeRejoining) {
  build(failover_only_cfg());
  for (int i = 0; i < 8; ++i)
    cloud_->write(static_cast<std::size_t>(i), i + 1, util::kilobytes(256));
  sim_->run_until(sim::secs(10.0));

  // Fail primary 0; the standby serves (and keeps absorbing mutations),
  // then the recovering primary must pull the full map back via a
  // background sync flow before rejoining.
  cloud_->fail_nns(0);
  sim_->run_until(sim::secs(12.0));
  cloud_->recover_nns(0);
  sim_->run_until(sim::secs(30.0));

  const MetadataStats& ms = cloud_->meta_stats();
  EXPECT_GE(ms.resyncs_started, 1u);
  EXPECT_EQ(ms.resyncs_completed, ms.resyncs_started);
  EXPECT_GT(ms.resync_bytes, 0u);
  // The rejoined primary serves again with the peer's (current) metadata.
  NameNode& primary = cloud_->nns_instance(0);
  NameNode& standby = cloud_->nns_instance(cloud_->fes().nns_count());
  EXPECT_TRUE(primary.alive());
  EXPECT_EQ(primary.content_count(), standby.content_count());
}

TEST_F(MetaFtTest, ScriptedOutageWindowLosesNothing) {
  // The ISSUE acceptance scenario in unit form: one primary down for a
  // window while traffic keeps flowing. Every op completes, nothing is
  // dropped, and the node is back (re-synced) by the end.
  CloudConfig cfg = failover_only_cfg();
  cfg.churn.scripted.push_back(
      {2.0, sim::ScriptedFailure::Target::kNns, 0, 6.0});
  build(cfg);
  for (int i = 0; i < 12; ++i)
    cloud_->write(static_cast<std::size_t>(i % 8), i + 1,
                  util::kilobytes(256));
  sim_->run_until(sim::secs(5.0));  // inside the outage window
  EXPECT_FALSE(cloud_->nns_instance(0).alive());
  for (int i = 0; i < 12; ++i)
    cloud_->read(static_cast<std::size_t>(i % 8), i + 1);
  sim_->run_until(sim::secs(40.0));

  EXPECT_EQ(completed(CloudOp::Kind::kWrite), 12u);
  EXPECT_EQ(completed(CloudOp::Kind::kRead), 12u);
  EXPECT_EQ(cloud_->failed_reads(), 0u);
  EXPECT_EQ(cloud_->failed_writes(), 0u);
  EXPECT_EQ(cloud_->meta_stats().requests_dropped, 0u);
  EXPECT_TRUE(cloud_->nns_instance(0).alive());
  EXPECT_EQ(cloud_->churn()->stats().nns_downs, 1u);
  EXPECT_EQ(cloud_->churn()->stats().nns_ups, 1u);
}

TEST_F(MetaFtTest, StochasticNnsChurnIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    CloudConfig cfg;
    cfg.churn.enabled = true;
    cfg.churn.nns_mtbf_s = 4.0;
    cfg.churn.nns_mttr_s = 1.0;
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
    const MetadataStats& ms = cloud.meta_stats();
    return std::tuple{ms.retries,   ms.failovers,
                      ms.unavailable, ms.requests_dropped,
                      ms.mirror_updates, ms.resyncs_completed,
                      cloud.churn()->stats().nns_downs};
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(std::get<6>(run(11)), 0u);
}

TEST_F(MetaFtTest, RebalancerMovesHotContentOffOverloadedServer) {
  CloudConfig cfg;  // rebalancing gates independently of churn
  cfg.enable_replication = false;
  cfg.params.rebalance_interval_s = 1.0;
  build(cfg);
  ASSERT_TRUE(cloud_->rebalance_enabled());
  ASSERT_FALSE(cloud_->nns_failover_enabled());

  for (int i = 0; i < 8; ++i)
    cloud_->write(static_cast<std::size_t>(i), i + 1, util::kilobytes(512));
  // Hammer content 1: its holder becomes the hottest server by far, so a
  // periodic scan must migrate it toward an under-loaded target.
  for (int i = 0; i < 24; ++i) {
    sim_->post_at(sim::secs(5.0 + 0.25 * i), [this, i] {
      cloud_->read(static_cast<std::size_t>(i % 8), 1);
    });
  }
  sim_->run_until(sim::secs(60.0));

  const RebalanceStats& rs = cloud_->rebalance_stats();
  EXPECT_GE(rs.scans, 50u);
  EXPECT_GE(rs.flows_completed, 1u);
  EXPECT_EQ(rs.flows_started, rs.flows_completed);  // nothing stranded
  EXPECT_GT(rs.bytes_moved, 0u);
  EXPECT_EQ(cloud_->failed_reads(), 0u);  // moves never lose the object
  const ContentMeta* m =
      cloud_->fes().dispatch_by_content(1).find(1);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->replicas.size(), 1u);
}

}  // namespace
}  // namespace scda::core
