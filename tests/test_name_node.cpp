#include "core/name_node.h"

#include <gtest/gtest.h>

#include <set>

#include "sim/simulator.h"

namespace scda::core {
namespace {

TEST(NameNode, ServesRequestAfterServiceTime) {
  sim::Simulator sim;
  NameNode nns(sim, 0, /*service_time=*/0.001);
  double served_at = -1;
  nns.submit([&] { served_at = sim.now().seconds(); });
  sim.run();
  EXPECT_DOUBLE_EQ(served_at, 0.001);
  EXPECT_EQ(nns.served(), 1u);
}

TEST(NameNode, ConcurrentRequestsQueue) {
  sim::Simulator sim;
  NameNode nns(sim, 0, 0.001);
  std::vector<double> times;
  for (int i = 0; i < 5; ++i)
    nns.submit([&] { times.push_back(sim.now().seconds()); });
  sim.run();
  ASSERT_EQ(times.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_NEAR(times[static_cast<size_t>(i)], 0.001 * (i + 1), 1e-12);
  EXPECT_NEAR(nns.max_delay(), 0.005, 1e-12);
  EXPECT_NEAR(nns.mean_delay(), 0.003, 1e-12);
}

TEST(NameNode, QueueDrainsBetweenBursts) {
  sim::Simulator sim;
  NameNode nns(sim, 0, 0.001);
  std::vector<double> times;
  nns.submit([&] { times.push_back(sim.now().seconds()); });
  sim.post_at(scda::sim::secs(1.0), [&] {
    nns.submit([&] { times.push_back(sim.now().seconds()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(times[1], 1.001, 1e-12);  // no residual queueing
}

TEST(NameNode, MetadataUpsertAndFind) {
  sim::Simulator sim;
  NameNode nns(sim, 0, 0.001);
  EXPECT_EQ(nns.find(7), nullptr);
  ContentMeta& m = nns.upsert(7);
  m.size_bytes = 1234;
  m.replicas.push_back(3);
  ASSERT_NE(nns.find(7), nullptr);
  EXPECT_EQ(nns.find(7)->size_bytes, 1234);
  EXPECT_EQ(nns.find(7)->replicas.size(), 1u);
  EXPECT_EQ(nns.content_count(), 1u);
  // Upsert again returns the same record.
  nns.upsert(7).reads = 5;
  EXPECT_EQ(nns.find(7)->size_bytes, 1234);
  EXPECT_EQ(nns.find(7)->reads, 5u);
}

TEST(NameNode, ServiceQueueStatsExactArithmetic) {
  // served / mean_delay / max_delay feed the cloud.mean_nns_delay_s metric
  // and the FES-vs-single-NNS comparison; pin the exact arithmetic.
  sim::Simulator sim;
  NameNode nns(sim, 0, 0.002);
  for (int i = 0; i < 3; ++i) nns.submit([] {});
  sim.run();
  EXPECT_EQ(nns.served(), 3u);
  // Delays at submit time: 0.002, 0.004, 0.006.
  EXPECT_NEAR(nns.mean_delay(), 0.004, 1e-12);
  EXPECT_NEAR(nns.max_delay(), 0.006, 1e-12);
  // A later lone request adds only one service time to the running mean.
  sim.post_at(scda::sim::secs(1.0), [&] { nns.submit([] {}); });
  sim.run();
  EXPECT_EQ(nns.served(), 4u);
  EXPECT_NEAR(nns.mean_delay(), (0.002 + 0.004 + 0.006 + 0.002) / 4, 1e-12);
  EXPECT_NEAR(nns.max_delay(), 0.006, 1e-12);
}

TEST(NameNode, ContentIdsSortedAscending) {
  sim::Simulator sim;
  NameNode nns(sim, 0, 0.001);
  for (const ContentId id : {ContentId{42}, ContentId{7}, ContentId{1000},
                             ContentId{3}, ContentId{77}})
    (void)nns.upsert(id);
  const std::vector<ContentId> ids = nns.content_ids();
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(ids.front(), 3);
  EXPECT_EQ(ids.back(), 1000);
}

TEST(NameNode, DeadNodeRejectsSubmit) {
  sim::Simulator sim;
  NameNode nns(sim, 0, 0.001);
  nns.set_state(NameNode::State::kDown);
  EXPECT_FALSE(nns.alive());
  bool ran = false;
  EXPECT_LT(nns.submit([&] { ran = true; }), 0.0);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(nns.served(), 0u);
  // Up but still re-syncing from its peer: not serving yet either.
  nns.set_state(NameNode::State::kSyncing);
  EXPECT_FALSE(nns.alive());
  EXPECT_LT(nns.submit([&] { ran = true; }), 0.0);
  sim.run();
  EXPECT_FALSE(ran);
  // Revived, it serves normally again.
  nns.set_state(NameNode::State::kServing);
  EXPECT_GE(nns.submit([&] { ran = true; }), 0.0);
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(NameNode, CrashVoidsQueuedHandlersAndClearsBacklog) {
  sim::Simulator sim;
  NameNode nns(sim, 0, 1.0);
  int fired = 0;
  for (int i = 0; i < 3; ++i) nns.submit([&] { ++fired; });
  // Crash before any service completes: the queued handlers must die with
  // the node instead of firing against the recovered instance.
  sim.post_at(scda::sim::secs(0.5),
              [&] { nns.set_state(NameNode::State::kDown); });
  sim.run();
  EXPECT_EQ(fired, 0);
  // Recovery starts from an empty queue (no ghost backlog): a fresh
  // request is served after exactly one service time.
  nns.set_state(NameNode::State::kServing);
  double served_at = -1;
  sim.post_at(scda::sim::secs(10.0),
              [&] { nns.submit([&] { served_at = sim.now().seconds(); }); });
  sim.run();
  EXPECT_NEAR(served_at, 11.0, 1e-9);
}

TEST(NameNode, MirrorAndAdoptCopyMetadata) {
  sim::Simulator sim;
  NameNode a(sim, 0, 0.001), b(sim, 1, 0.001);
  ContentMeta& m = a.upsert(5);
  m.size_bytes = 999;
  m.replicas = {2, 7};
  b.apply_mirror(*a.find(5));
  ASSERT_NE(b.find(5), nullptr);
  EXPECT_EQ(b.find(5)->size_bytes, 999);
  EXPECT_EQ(b.find(5)->replicas, (std::vector<std::int32_t>{2, 7}));
  (void)a.upsert(6);
  NameNode c(sim, 2, 0.001);
  c.adopt_meta_from(a);
  EXPECT_EQ(c.content_count(), 2u);
  EXPECT_NE(c.find(6), nullptr);
}

TEST(FrontEnd, DispatchIsDeterministic) {
  sim::Simulator sim;
  NameNode n0(sim, 0, 0.001), n1(sim, 1, 0.001), n2(sim, 2, 0.001);
  FrontEnd fes({&n0, &n1, &n2});
  EXPECT_EQ(fes.nns_count(), 3u);
  for (std::int64_t k = 0; k < 50; ++k) {
    EXPECT_EQ(&fes.dispatch_by_content(k), &fes.dispatch_by_content(k));
  }
}

TEST(FrontEnd, DispatchSpreadsLoad) {
  sim::Simulator sim;
  NameNode n0(sim, 0, 0.001), n1(sim, 1, 0.001), n2(sim, 2, 0.001),
      n3(sim, 3, 0.001);
  FrontEnd fes({&n0, &n1, &n2, &n3});
  int counts[4] = {0, 0, 0, 0};
  for (std::int64_t k = 0; k < 4000; ++k)
    ++counts[fes.dispatch_by_content(k).index()];
  for (int c : counts) {
    EXPECT_GT(c, 800);   // roughly balanced (1000 +- 20%)
    EXPECT_LT(c, 1200);
  }
}

TEST(FrontEnd, DispatchIndexMatchesNodeDispatchGolden) {
  // dispatch_index() is the failover layer's shard function; it must agree
  // with dispatch_by_content() forever (content placed under one mapping
  // must be found under the other). The golden values pin the splitmix64
  // dispatch so an accidental hash change fails loudly — it would silently
  // re-shard every committed artifact.
  sim::Simulator sim;
  NameNode n0(sim, 0, 0.001), n1(sim, 1, 0.001), n2(sim, 2, 0.001),
      n3(sim, 3, 0.001);
  FrontEnd fes({&n0, &n1, &n2, &n3});
  for (std::int64_t k = 0; k < 64; ++k) {
    const std::size_t shard = fes.dispatch_index(static_cast<std::uint64_t>(k));
    EXPECT_EQ(&fes.node(shard), &fes.dispatch_by_content(k));
  }
  const std::size_t golden[8] = {3, 1, 2, 1, 2, 2, 0, 3};
  for (std::uint64_t k = 0; k < 8; ++k)
    EXPECT_EQ(fes.dispatch_index(k), golden[k]) << "key " << k;
}

TEST(FrontEnd, SingleNodeGetsEverything) {
  sim::Simulator sim;
  NameNode n0(sim, 0, 0.001);
  FrontEnd fes({&n0});
  for (std::int64_t k = 0; k < 20; ++k)
    EXPECT_EQ(&fes.dispatch_by_content(k), &n0);
}

TEST(FrontEnd, SingleNnsBottleneckDelaysGrowWithLoad) {
  // The GFS/HDFS weakness the paper targets: one NNS under a burst of
  // requests builds a queue; four NNS behind an FES split it.
  sim::Simulator sim;
  NameNode single(sim, 0, 0.001);
  FrontEnd fes1({&single});
  for (std::int64_t k = 0; k < 400; ++k)
    fes1.dispatch_by_content(k).submit([] {});
  sim.run();

  sim::Simulator sim2;
  NameNode a(sim2, 0, 0.001), b(sim2, 1, 0.001), c(sim2, 2, 0.001),
      d(sim2, 3, 0.001);
  FrontEnd fes4({&a, &b, &c, &d});
  for (std::int64_t k = 0; k < 400; ++k)
    fes4.dispatch_by_content(k).submit([] {});
  sim2.run();

  const double multi_max = std::max(
      std::max(a.max_delay(), b.max_delay()),
      std::max(c.max_delay(), d.max_delay()));
  EXPECT_GT(single.max_delay(), 2.5 * multi_max);
}

}  // namespace
}  // namespace scda::core
