#include "transport/sender.h"

#include <gtest/gtest.h>

#include "net/network.h"
#include "sim/simulator.h"
#include "transport/receiver.h"
#include "transport/transport_manager.h"

namespace scda::transport {
namespace {

/// Sender tests run against a real two-node network with a live receiver,
/// via the TransportManager, so window, ack and retransmission behaviour is
/// exercised end to end.
class SenderTest : public ::testing::Test {
 protected:
  static constexpr sim::BitRate kCap{10e6};  // 10 Mbps
  static constexpr double kDelay = 0.005;  // 5 ms per direction

  SenderTest() { build(1 << 20); }

  void build(std::int64_t queue_limit) {
    sim_ = std::make_unique<sim::Simulator>(1);
    net_ = std::make_unique<net::Network>(*sim_);
    a_ = net_->add_node(net::NodeRole::kClient);
    b_ = net_->add_node(net::NodeRole::kServer);
    net_->add_duplex(a_, b_, kCap, kDelay, queue_limit);
    net_->build_routes();
    tm_ = std::make_unique<TransportManager>(*net_);
    tm_->set_completion_callback(
        [this](const FlowRecord& r) { completed_.push_back(r.id); });
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<TransportManager> tm_;
  net::NodeId a_{}, b_{};
  std::vector<net::FlowId> completed_;
};

TEST_F(SenderTest, TcpFlowCompletes) {
  const auto id = tm_->start_tcp_flow(a_, b_, 100000);
  sim_->run_until(scda::sim::secs(30.0));
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(completed_[0], id);
  EXPECT_TRUE(tm_->record(id).finished());
  auto* s = tm_->sender(id);
  EXPECT_TRUE(s->fully_acked());
}

TEST_F(SenderTest, TcpSlowStartDoublesWindowEachRtt) {
  const auto id = tm_->start_tcp_flow(a_, b_, 10'000'000);
  auto* s = tm_->sender(id);
  const double w0 = s->cwnd_bytes();
  sim_->run_until(scda::sim::secs(0.012));  // one RTT (10 ms) in
  const double w1 = s->cwnd_bytes();
  EXPECT_NEAR(w1, 2 * w0, static_cast<double>(net::kDefaultMtuBytes));
}

TEST_F(SenderTest, TcpMeasuresRtt) {
  const auto id = tm_->start_tcp_flow(a_, b_, 50000);
  sim_->run_until(scda::sim::secs(5.0));
  auto* s = tm_->sender(id);
  // base RTT 10 ms plus serialization
  EXPECT_GT(s->srtt(), 0.009);
  EXPECT_LT(s->srtt(), 0.1);
}

TEST_F(SenderTest, TcpRecoversFromHeavyLoss) {
  build(5 * 1500);  // tiny buffer forces drops
  const auto id = tm_->start_tcp_flow(a_, b_, 500'000);
  sim_->run_until(scda::sim::secs(60.0));
  ASSERT_EQ(completed_.size(), 1u);
  auto* s = tm_->sender(id);
  EXPECT_GT(s->stats().retransmits, 0u);
}

TEST_F(SenderTest, TcpThroughputApproachesCapacityOnCleanLink) {
  const std::int64_t size = 2'000'000;
  tm_->start_tcp_flow(a_, b_, size);
  sim_->run_until(scda::sim::secs(60.0));
  ASSERT_EQ(completed_.size(), 1u);
  const auto& rec = tm_->record(net::FlowId{0});
  const double rate = static_cast<double>(size) * 8 / rec.fct();
  EXPECT_GT(rate, 0.5 * kCap.bps());  // at least half capacity incl. slow start
}

TEST_F(SenderTest, ScdaFlowCompletesAtAllocatedRate) {
  const std::int64_t size = 1'000'000;
  auto h = tm_->start_scda_flow(a_, b_, size, sim::BitRate{8e6},
                              sim::BitRate{8e6});
  sim_->run_until(scda::sim::secs(30.0));
  ASSERT_EQ(completed_.size(), 1u);
  const double fct = tm_->record(h.id).fct();
  // 1 MB at 8 Mbps ~ 1.0 s + RTT overheads; pacing keeps it close
  EXPECT_NEAR(fct, 1.05, 0.15);
}

TEST_F(SenderTest, ScdaPacingSpacesPackets) {
  // At 1 Mbps a 1500 B packet takes 12 ms; with pacing the link queue
  // should never hold more than a couple of packets.
  auto h = tm_->start_scda_flow(a_, b_, 200'000, sim::BitRate{1e6},
                              sim::BitRate{1e6});
  (void)h;
  double max_queue = 0;
  const net::LinkId l = net_->link_between(a_, b_);
  for (int i = 1; i < 200; ++i) {
    sim_->run_until(scda::sim::secs(i * 0.01));
    max_queue = std::max(
        max_queue, static_cast<double>(net_->link(l).queue_bytes()));
  }
  EXPECT_LE(max_queue, 3 * 1500.0);
}

TEST_F(SenderTest, ScdaRateIncreaseSpeedsUpTransfer) {
  auto h = tm_->start_scda_flow(a_, b_, 2'000'000, sim::BitRate{1e6},
                              sim::BitRate{1e7});
  sim_->post_at(scda::sim::secs(0.5), [h] { h.sender->set_rate(sim::BitRate{9e6}); });
  sim_->run_until(scda::sim::secs(30.0));
  ASSERT_EQ(completed_.size(), 1u);
  const double fct = tm_->record(h.id).fct();
  // all at 1 Mbps would be ~16 s; the boost must cut it under 3.5 s
  EXPECT_LT(fct, 3.5);
}

TEST_F(SenderTest, ScdaRateFloorPreventsStall) {
  auto h = tm_->start_scda_flow(a_, b_, 30000, sim::BitRate{1e6},
                              sim::BitRate{1e6});
  h.sender->set_rate(sim::BitRate{});  // floored internally, must not deadlock
  sim_->run_until(scda::sim::secs(60.0));
  EXPECT_EQ(completed_.size(), 1u);
}

TEST_F(SenderTest, ScdaRecoversFromBurstLossViaGoBackN) {
  build(4 * 1500);
  // Initial rate far above capacity: the first window overruns the queue.
  auto h = tm_->start_scda_flow(a_, b_, 400'000, sim::BitRate{50e6},
                              sim::BitRate{50e6});
  sim_->post_at(scda::sim::secs(0.3), [h] { h.sender->set_rate(sim::BitRate{8e6}); });
  sim_->run_until(scda::sim::secs(30.0));
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_GT(h.sender->stats().retransmits, 0u);
}

TEST_F(SenderTest, ReceiverWindowLimitsSender) {
  // rcvw of one segment on a 10 ms RTT path caps the rate at roughly
  // 1500 B per RTT ~ 150 KB/s, so 300 KB needs ~2 s.
  auto h = tm_->start_scda_flow(a_, b_, 300'000, sim::BitRate{10e6},
                              sim::BitRate{10e6});
  h.receiver->set_rcvw_bytes(1500);
  sim_->run_until(scda::sim::secs(1.0));
  EXPECT_FALSE(h.sender->fully_acked());
  EXPECT_EQ(h.sender->peer_rcvw_bytes(), 1500);
  sim_->run_until(scda::sim::secs(10.0));
  EXPECT_TRUE(h.sender->fully_acked());
}

TEST_F(SenderTest, SenderStatsCountDataPackets) {
  tm_->start_tcp_flow(a_, b_, 14600);  // exactly 10 MSS
  sim_->run_until(scda::sim::secs(10.0));
  auto* s = tm_->sender(scda::net::FlowId{0});
  EXPECT_GE(s->stats().data_packets_sent, 10u);
}

TEST_F(SenderTest, ZeroByteFlowEdgeCase) {
  // A 1-byte flow must complete (empty flows are not created by the cloud).
  tm_->start_tcp_flow(a_, b_, 1);
  sim_->run_until(scda::sim::secs(5.0));
  EXPECT_EQ(completed_.size(), 1u);
}

TEST_F(SenderTest, ManyParallelFlowsAllComplete) {
  for (int i = 0; i < 20; ++i) tm_->start_tcp_flow(a_, b_, 50'000);
  sim_->run_until(scda::sim::secs(120.0));
  EXPECT_EQ(completed_.size(), 20u);
}

TEST_F(SenderTest, BaseRttMatchesTopology) {
  EXPECT_NEAR(tm_->base_rtt(a_, b_), 2 * kDelay, 1e-12);
}

}  // namespace
}  // namespace scda::transport
