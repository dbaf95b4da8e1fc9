// Every data segment is acknowledged at once, for TCP and SCDA flows
// alike: the receiver has no delayed-ACK mode, as NS2's base TCP sink.
#include <gtest/gtest.h>

#include "net/network.h"
#include "sim/simulator.h"
#include "transport/receiver.h"
#include "transport/transport_manager.h"

namespace scda::transport {
namespace {

/// Standalone two-node rig.
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

TEST_F(TcpOptionsTest, PerPacketAcksByDefault) {
  tm_->start_tcp_flow(a_, b_, 1'000'000);
  sim_->run_until(scda::sim::secs(60.0));
  ASSERT_EQ(completed_.size(), 1u);
  const auto acks = net_->link(ba_).stats().tx_packets;
  const auto data = net_->link(ab_).stats().tx_packets;
  EXPECT_GE(acks + 5, data);  // one ack per data packet
}

TEST_F(TcpOptionsTest, ScdaFlowsUnaffectedByTcpConfig) {
  tm_->start_scda_flow(a_, b_, 500'000, sim::BitRate{8e6}, sim::BitRate{8e6});
  sim_->run_until(scda::sim::secs(10.0));
  EXPECT_EQ(completed_.size(), 1u);
  // SCDA sink acks every packet: ack count tracks data count.
  const auto acks = net_->link(ba_).stats().tx_packets;
  const auto data = net_->link(ab_).stats().tx_packets;
  EXPECT_GE(acks + 5, data);
}

}  // namespace
}  // namespace scda::transport
