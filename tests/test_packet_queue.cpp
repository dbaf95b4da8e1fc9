#include "net/packet_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "net/packet_pool.h"

namespace scda::net {
namespace {

Packet pkt(FlowId flow, std::int64_t seq = 0) {
  return make_data(flow, scda::net::NodeId{0}, scda::net::NodeId{1}, seq,
                   1000, scda::sim::secs(0.0));
}

/// Remove slot `n` from the queue and take its packet out of the pool, as
/// a link does between finishing transmission and delivery.
Packet take(PacketPool& pool, PacketQueue& q, PacketPool::Index n) {
  q.detach(n);
  return pool.take(n);
}

/// Drain the queue through the select/take service cycle a link performs,
/// recording (flow, seq) service order.
std::vector<std::pair<FlowId, std::int64_t>> drain(PacketPool& pool,
                                                   PacketQueue& q) {
  std::vector<std::pair<FlowId, std::int64_t>> order;
  while (!q.empty()) {
    Packet p = take(pool, q, q.select_next());
    q.note_transmitted(p.flow);
    order.emplace_back(p.flow, p.seq);
  }
  return order;
}

TEST(PacketQueue, StartsEmpty) {
  PacketPool pool;
  PacketQueue q(pool);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(pool.capacity(), 0u);
}

TEST(PacketQueue, FifoServesArrivalOrder) {
  PacketPool pool;
  PacketQueue q(pool);
  for (int i = 0; i < 5; ++i) q.push(pkt(FlowId{i % 2}, i));
  const auto order = drain(pool, q);
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)].second, i);
  }
}

TEST(PacketQueue, SjfServesLeastTransmittedFlowFirst) {
  PacketPool pool;
  PacketQueue q(pool);
  q.set_discipline(QueueDiscipline::kSjf);
  // Flow 1 has already transmitted 3 packets; flow 2 none.
  for (int i = 0; i < 3; ++i) q.note_transmitted(scda::net::FlowId{1});
  q.push(pkt(scda::net::FlowId{1}, 10));
  q.push(pkt(scda::net::FlowId{2}, 20));
  const auto order = drain(pool, q);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, FlowId{2});  // fewest transmitted goes first
  EXPECT_EQ(order[1].first, FlowId{1});
}

TEST(PacketQueue, SjfTieBreaksByLongestWaitingFlow) {
  PacketPool pool;
  PacketQueue q(pool);
  q.set_discipline(QueueDiscipline::kSjf);
  q.push(pkt(scda::net::FlowId{7}, 1));  // flow 7 queued first
  q.push(pkt(scda::net::FlowId{3}, 2));
  const auto order = drain(pool, q);
  // Equal counts after each transmission, so service alternates starting
  // from the flow whose oldest packet has waited longest.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, FlowId{7});
  EXPECT_EQ(order[1].first, FlowId{3});
}

TEST(PacketQueue, SjfNeverReordersWithinAFlow) {
  // The seed's swap-to-front scan could reorder packets of the same flow;
  // the indexed queue must serve each flow strictly FIFO.
  PacketPool pool;
  PacketQueue q(pool);
  q.set_discipline(QueueDiscipline::kSjf);
  for (int i = 0; i < 8; ++i) q.push(pkt(scda::net::FlowId{1}, i));
  for (int i = 0; i < 8; ++i) q.push(pkt(scda::net::FlowId{2}, 100 + i));
  const auto order = drain(pool, q);
  std::int64_t prev1 = -1;
  std::int64_t prev2 = -1;
  for (const auto& [flow, seq] : order) {
    if (flow == FlowId{1}) {
      EXPECT_GT(seq, prev1);
      prev1 = seq;
    } else {
      EXPECT_GT(seq, prev2);
      prev2 = seq;
    }
  }
}

TEST(PacketQueue, SwitchToSjfWithQueuedPacketsRebuildsIndex) {
  PacketPool pool;
  PacketQueue q(pool);
  // Queue under FIFO, then enable SJF: the per-flow index must be rebuilt
  // from the arrival-order list, and service must follow SJF rules.
  for (int i = 0; i < 4; ++i) q.push(pkt(scda::net::FlowId{1}, i));
  q.push(pkt(scda::net::FlowId{2}, 100));
  q.set_discipline(QueueDiscipline::kSjf);
  const auto first = q.packet(q.select_next());
  // Both flows have count 0; flow 1 queued first so it goes, then counts
  // alternate service until flow 1's backlog is drained.
  EXPECT_EQ(first.flow, FlowId{1});
  const auto order = drain(pool, q);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[1].first, FlowId{2});  // after a flow-1 tx, flow 2 is next
}

TEST(PacketQueue, SwitchBackToFifoRestoresArrivalOrder) {
  PacketPool pool;
  PacketQueue q(pool);
  q.set_discipline(QueueDiscipline::kSjf);
  q.push(pkt(scda::net::FlowId{1}, 0));
  q.push(pkt(scda::net::FlowId{2}, 1));
  q.push(pkt(scda::net::FlowId{1}, 2));
  q.set_discipline(QueueDiscipline::kFifo);
  const auto order = drain(pool, q);
  ASSERT_EQ(order.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)].second, i);
  }
}

TEST(PacketQueue, TxCountsOnlyAdvanceUnderSjf) {
  PacketPool pool;
  PacketQueue q(pool);
  q.note_transmitted(scda::net::FlowId{5});  // FIFO mode: no SJF bookkeeping
  EXPECT_EQ(q.tx_count(scda::net::FlowId{5}), 0u);
  q.set_discipline(QueueDiscipline::kSjf);
  q.note_transmitted(scda::net::FlowId{5});
  q.note_transmitted(scda::net::FlowId{5});
  EXPECT_EQ(q.tx_count(scda::net::FlowId{5}), 2u);
}

TEST(PacketQueue, PoolIsRecycledAcrossChurn) {
  PacketPool pool;
  PacketQueue q(pool);
  for (int round = 0; round < 10'000; ++round) {
    q.push(pkt(scda::net::FlowId{1}, round));
    q.push(pkt(scda::net::FlowId{2}, round));
    (void)take(pool, q, q.select_next());
    (void)take(pool, q, q.select_next());
  }
  EXPECT_TRUE(q.empty());
  // Peak depth was 2, so the pool must not have grown past it.
  EXPECT_LE(pool.capacity(), 2u);
}

TEST(PacketQueue, QueuesSharingAPoolKeepTheirServiceOrder) {
  // A FIFO and an SJF queue draw from one pool, pushing and taking in
  // turn, so each reuses slots the other freed. Each must still serve in
  // its own order.
  PacketPool pool;
  PacketQueue fifo(pool);
  PacketQueue sjf(pool);
  sjf.set_discipline(QueueDiscipline::kSjf);
  std::vector<std::int64_t> fifo_seqs;
  std::vector<std::int64_t> sjf_seqs;
  const auto serve = [&] {
    fifo_seqs.push_back(take(pool, fifo, fifo.select_next()).seq);
    const Packet p = take(pool, sjf, sjf.select_next());
    sjf.note_transmitted(p.flow);
    sjf_seqs.push_back(p.seq);
  };
  for (int i = 0; i < 8; ++i) {
    fifo.push(pkt(FlowId{i % 3}, i));
    sjf.push(pkt(FlowId{1}, 100 + i));
    if (i % 2 == 1) serve();
  }
  // Flow 1 has sent four packets; flow 2's first one goes ahead of the
  // rest of flow 1's backlog.
  sjf.push(pkt(FlowId{2}, 200));
  while (!fifo.empty()) serve();
  sjf_seqs.push_back(take(pool, sjf, sjf.select_next()).seq);

  EXPECT_EQ(fifo_seqs, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(sjf_seqs, (std::vector<std::int64_t>{100, 101, 102, 103, 200, 104,
                                                 105, 106, 107}));
  EXPECT_TRUE(sjf.empty());
  // Both queues held 5 packets after the eighth push.
  EXPECT_EQ(pool.capacity(), 10u);
}

TEST(PacketQueue, SelectedHandleSurvivesPushes) {
  // A link selects a packet when transmission starts and takes it when
  // transmission completes; packets arriving in between must not move it.
  PacketPool pool;
  PacketQueue q(pool);
  q.push(pkt(scda::net::FlowId{1}, 42));
  const PacketPool::Index n = q.select_next();
  for (int i = 0; i < 100; ++i) q.push(pkt(scda::net::FlowId{2}, i));
  EXPECT_EQ(q.packet(n).seq, 42);
  EXPECT_EQ(take(pool, q, n).seq, 42);
  EXPECT_EQ(q.size(), 100u);
}

TEST(PacketQueue, PerfCountersTrackDepthAndSjfUse) {
  PacketPool pool;
  PacketQueue q(pool);
  q.set_discipline(QueueDiscipline::kSjf);
  for (int i = 0; i < 6; ++i) q.push(pkt(FlowId{i}, i));
  const auto order = drain(pool, q);
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(q.perf().pool_hwm, 6u);
  EXPECT_GT(q.perf().sjf_selects, 0u);
}

}  // namespace
}  // namespace scda::net
