// Tests for the TCP baseline tuning knobs: delayed ACKs (RFC 1122) and the
// initial congestion window (RFC 6928).
#include <gtest/gtest.h>

#include "net/network.h"
#include "sim/simulator.h"
#include "transport/receiver.h"
#include "transport/transport_manager.h"

namespace scda::transport {
namespace {

/// Standalone two-node rig (also instantiable inside a test body).
struct Rig {
  Rig() {
    sim_ = std::make_unique<sim::Simulator>(1);
    net_ = std::make_unique<net::Network>(*sim_);
    a_ = net_->add_node(net::NodeRole::kClient);
    b_ = net_->add_node(net::NodeRole::kServer);
    auto [ab, ba] = net_->add_duplex(a_, b_, sim::BitRate{10e6}, 0.005, 1 << 20);
    ab_ = ab;
    ba_ = ba;
    net_->build_routes();
    tm_ = std::make_unique<TransportManager>(*net_);
    tm_->set_completion_callback(
        [this](const FlowRecord& r) { completed_.push_back(r.id); });
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<TransportManager> tm_;
  net::NodeId a_{}, b_{};
  net::LinkId ab_{}, ba_{};
  std::vector<net::FlowId> completed_;
};

class TcpOptionsTest : public ::testing::Test, protected Rig {};

TEST_F(TcpOptionsTest, LargerInitialWindowSpeedsShortFlows) {
  TransportManager::TcpConfig c;
  c.init_cwnd_segments = 10;
  tm_->set_tcp_config(c);
  tm_->start_tcp_flow(a_, b_, 14600);  // 10 MSS: one RTT with IW10
  sim_->run_until(scda::sim::secs(10.0));
  ASSERT_EQ(completed_.size(), 1u);
  const double fct_iw10 = tm_->record(net::FlowId{0}).fct();

  Rig fresh;
  TransportManager::TcpConfig c2;
  c2.init_cwnd_segments = 2;
  fresh.tm_->set_tcp_config(c2);
  fresh.tm_->start_tcp_flow(fresh.a_, fresh.b_, 14600);
  fresh.sim_->run_until(scda::sim::secs(10.0));
  ASSERT_EQ(fresh.completed_.size(), 1u);
  const double fct_iw2 = fresh.tm_->record(net::FlowId{0}).fct();

  EXPECT_LT(fct_iw10, fct_iw2);
}

TEST_F(TcpOptionsTest, DelayedAckHalvesAckTraffic) {
  TransportManager::TcpConfig c;
  c.delayed_ack = true;
  tm_->set_tcp_config(c);
  tm_->start_tcp_flow(a_, b_, 1'000'000);
  sim_->run_until(scda::sim::secs(60.0));
  ASSERT_EQ(completed_.size(), 1u);
  const auto acks = net_->link(ba_).stats().tx_packets;
  const auto data = net_->link(ab_).stats().tx_packets;
  // Roughly one ACK per two data segments (plus timer/edge acks).
  EXPECT_LT(acks, data * 3 / 4);
  EXPECT_GT(acks, data / 3);
}

TEST_F(TcpOptionsTest, PerPacketAcksByDefault) {
  tm_->start_tcp_flow(a_, b_, 1'000'000);
  sim_->run_until(scda::sim::secs(60.0));
  ASSERT_EQ(completed_.size(), 1u);
  const auto acks = net_->link(ba_).stats().tx_packets;
  const auto data = net_->link(ab_).stats().tx_packets;
  EXPECT_GE(acks + 5, data);  // one ack per data packet
}

TEST_F(TcpOptionsTest, DelayedAckFlowStillCompletesUnderLoss) {
  net_->link(ab_).set_error_model(0.02, &sim_->rng());
  TransportManager::TcpConfig c;
  c.delayed_ack = true;
  tm_->set_tcp_config(c);
  tm_->start_tcp_flow(a_, b_, 400'000);
  sim_->run_until(scda::sim::secs(300.0));
  EXPECT_EQ(completed_.size(), 1u);
}

TEST_F(TcpOptionsTest, AckTimerFlushesTailSegment) {
  // An odd number of segments leaves one unacked; the 40 ms timer (or the
  // completion ack) must flush it so the sender never stalls.
  TransportManager::TcpConfig c;
  c.delayed_ack = true;
  tm_->set_tcp_config(c);
  tm_->start_tcp_flow(a_, b_, 1460 * 7);
  sim_->run_until(scda::sim::secs(10.0));
  EXPECT_EQ(completed_.size(), 1u);
}

TEST_F(TcpOptionsTest, ScdaFlowsUnaffectedByTcpConfig) {
  TransportManager::TcpConfig c;
  c.delayed_ack = true;
  tm_->set_tcp_config(c);
  auto h = tm_->start_scda_flow(a_, b_, 500'000, sim::BitRate{8e6}, sim::BitRate{8e6});
  sim_->run_until(scda::sim::secs(10.0));
  EXPECT_EQ(completed_.size(), 1u);
  (void)h;
  // SCDA sink acks every packet: ack count tracks data count.
  const auto acks = net_->link(ba_).stats().tx_packets;
  const auto data = net_->link(ab_).stats().tx_packets;
  EXPECT_GE(acks + 5, data);
}

}  // namespace
}  // namespace scda::transport
