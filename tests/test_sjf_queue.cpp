// Tests for the OpenFlow-style SJF queue discipline (paper section IV-B).
#include <gtest/gtest.h>

#include "net/link.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "transport/transport_manager.h"

namespace scda::net {
namespace {

class SjfQueueTest : public ::testing::Test {
 protected:
  SjfQueueTest()
      : link_(sim_, pool_, LinkId{0}, NodeId{0}, NodeId{1}, sim::BitRate{1e6},
              0.001, 1 << 20) {
    link_.set_discipline(QueueDiscipline::kSjf);
    link_.set_deliver([this](Packet&& p) { order_.push_back(p.flow); });
  }

  Packet pkt(FlowId flow) {
    return make_data(flow, scda::net::NodeId{0}, scda::net::NodeId{1}, 0, 1000,
                     scda::sim::secs(0.0));
  }

  sim::Simulator sim_;
  PacketPool pool_;
  Link link_;
  std::vector<FlowId> order_;
};

TEST_F(SjfQueueTest, YoungFlowOvertakesQueuedElder) {
  // Flow 1 fills the queue; flow 2's first packet arrives later but must
  // be served before flow 1's backlog (flow 2 has sent 0 packets).
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(link_.enqueue(pkt(scda::net::FlowId{1})));
  }
  ASSERT_TRUE(link_.enqueue(pkt(scda::net::FlowId{2})));
  sim_.run();
  ASSERT_EQ(order_.size(), 6u);
  // The first packet (already in transmission) is flow 1; the second
  // served packet must be flow 2.
  EXPECT_EQ(order_[0], FlowId{1});
  EXPECT_EQ(order_[1], FlowId{2});
}

TEST_F(SjfQueueTest, AlternatesBetweenEqualCountFlows) {
  // Two flows with equal backlogs are served in near round-robin, because
  // serving one increments its count and hands the next slot to the other.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(link_.enqueue(pkt(scda::net::FlowId{1})));
    ASSERT_TRUE(link_.enqueue(pkt(scda::net::FlowId{2})));
  }
  sim_.run();
  ASSERT_EQ(order_.size(), 8u);
  int alternations = 0;
  for (std::size_t i = 1; i < order_.size(); ++i)
    if (order_[i] != order_[i - 1]) ++alternations;
  EXPECT_GE(alternations, 5);
}

TEST_F(SjfQueueTest, FifoDisciplinePreservesArrivalOrder) {
  link_.set_discipline(QueueDiscipline::kFifo);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(link_.enqueue(pkt(scda::net::FlowId{1})));
  }
  ASSERT_TRUE(link_.enqueue(pkt(scda::net::FlowId{2})));
  ASSERT_TRUE(link_.enqueue(pkt(scda::net::FlowId{1})));
  sim_.run();
  EXPECT_EQ(order_, (std::vector<FlowId>{FlowId{1}, FlowId{1}, FlowId{1},
                                         FlowId{2}, FlowId{1}}));
}

TEST(SjfEndToEnd, ShortTcpFlowFinishesFasterUnderSjf) {
  // A long TCP flow saturates a shared link; a short flow starts late.
  // With SJF switches the short flow's packets jump the elder's queue, so
  // its FCT improves versus FIFO.
  const auto run = [](QueueDiscipline d) {
    sim::Simulator sim(3);
    Network net(sim);
    const auto a = net.add_node(NodeRole::kClient);
    const auto b = net.add_node(NodeRole::kServer);
    net.add_duplex(a, b, sim::BitRate{20e6}, 0.005, 64 * 1500);
    net.build_routes();
    net.link(net.link_between(a, b)).set_discipline(d);
    transport::TransportManager tm(net);
    double short_fct = -1;
    tm.set_completion_callback(
        [&](const transport::FlowRecord& r) {
          if (r.size_bytes < 1'000'000) short_fct = r.fct();
        });
    tm.start_tcp_flow(a, b, 30'000'000);  // elephant
    sim.post_at(scda::sim::secs(3.0),
                [&] { tm.start_tcp_flow(a, b, 150'000); });
    sim.run_until(scda::sim::secs(60.0));
    return short_fct;
  };
  const double fifo = run(QueueDiscipline::kFifo);
  const double sjf = run(QueueDiscipline::kSjf);
  ASSERT_GT(fifo, 0);
  ASSERT_GT(sjf, 0);
  EXPECT_LT(sjf, fifo);
}

}  // namespace
}  // namespace scda::net
