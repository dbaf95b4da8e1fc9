#include "transport/receiver.h"

#include <gtest/gtest.h>

#include "net/network.h"
#include "sim/simulator.h"

namespace scda::transport {
namespace {

/// Two directly connected nodes; the receiver under test sits on node 1 and
/// its ACKs flow back to node 0, where the network's local-delivery hook
/// captures them.
class ReceiverTest : public ::testing::Test {
 protected:
  ReceiverTest() : net_(sim_) {
    a_ = net_.add_node(net::NodeRole::kClient);
    b_ = net_.add_node(net::NodeRole::kServer);
    net_.add_duplex(a_, b_, sim::BitRate{100e6}, 0.001, 1 << 20);
    net_.build_routes();

    rec_.id = net::FlowId{1};
    rec_.src = a_;
    rec_.dst = b_;
    rec_.size_bytes = 4000;
    rec_.start_time = sim::Time{};

    net_.set_local_hook(
        [](void* t, net::Packet&& p) {
          auto& self = *static_cast<ReceiverTest*>(t);
          if (p.dst == self.a_) self.acks_.push_back(p);
        },
        this);
  }

  Receiver make_receiver(std::int64_t rcvw = 1 << 20) {
    return Receiver(net_, rec_, rcvw);
  }

  /// Hand `p` to `r`, counting the completion it reports.
  void feed(Receiver& r, net::Packet&& p) {
    if (r.handle(std::move(p))) ++completions_;
  }

  net::Packet data(std::int64_t seq, std::int32_t n) {
    return net::make_data(scda::net::FlowId{1}, a_, b_, seq, n, sim_.now());
  }

  sim::Simulator sim_;
  net::Network net_;
  net::NodeId a_{}, b_{};
  FlowRecord rec_;
  std::vector<net::Packet> acks_;
  int completions_ = 0;
};

TEST_F(ReceiverTest, InOrderDataAdvancesCumulativeAck) {
  auto r = make_receiver();
  r.handle(data(0, 1000));
  EXPECT_EQ(r.next_expected(), 1000);
  r.handle(data(1000, 1000));
  EXPECT_EQ(r.next_expected(), 2000);
}

TEST_F(ReceiverTest, AcksAreSentPerDataPacket) {
  auto r = make_receiver();
  r.handle(data(0, 1000));
  r.handle(data(1000, 1000));
  sim_.run();
  ASSERT_EQ(acks_.size(), 2u);
  EXPECT_EQ(acks_[0].type, net::PacketType::kAck);
  EXPECT_EQ(acks_[0].seq, 1000);
  EXPECT_EQ(acks_[1].seq, 2000);
}

TEST_F(ReceiverTest, OutOfOrderDataBuffersThenDrains) {
  auto r = make_receiver();
  r.handle(data(1000, 1000));  // hole at [0,1000)
  EXPECT_EQ(r.next_expected(), 0);
  r.handle(data(2000, 1000));
  EXPECT_EQ(r.next_expected(), 0);
  r.handle(data(0, 1000));  // fills the hole; cumulative point jumps
  EXPECT_EQ(r.next_expected(), 3000);
}

TEST_F(ReceiverTest, DuplicateDataDoesNotRegress) {
  auto r = make_receiver();
  r.handle(data(0, 1000));
  r.handle(data(0, 1000));
  EXPECT_EQ(r.next_expected(), 1000);
  sim_.run();
  ASSERT_EQ(acks_.size(), 2u);
  EXPECT_EQ(acks_[1].seq, 1000);  // duplicate ack, same cumulative point
}

TEST_F(ReceiverTest, OverlappingRangesMergeCorrectly) {
  auto r = make_receiver();
  r.handle(data(1000, 1000));
  r.handle(data(1500, 1000));  // overlaps previous
  r.handle(data(0, 1000));
  EXPECT_EQ(r.next_expected(), 2500);
}

TEST_F(ReceiverTest, CompletionFiresExactlyOnce) {
  auto r = make_receiver();
  feed(r, data(0, 2000));
  EXPECT_EQ(completions_, 0);
  feed(r, data(2000, 2000));
  EXPECT_EQ(completions_, 1);
  EXPECT_TRUE(r.complete());
  feed(r, data(2000, 2000));  // stray duplicate after completion
  EXPECT_EQ(completions_, 1);
}

TEST_F(ReceiverTest, CompletionRecordsFinishTime) {
  auto r = make_receiver();
  sim_.post_at(scda::sim::secs(2.0), [&] { feed(r, data(0, 4000)); });
  sim_.run();
  EXPECT_EQ(completions_, 1);
  EXPECT_DOUBLE_EQ(rec_.finish_time.seconds(), 2.0);
  EXPECT_DOUBLE_EQ(rec_.fct(), 2.0);
}

TEST_F(ReceiverTest, AckEchoesSenderTimestamp) {
  auto r = make_receiver();
  auto p = data(0, 1000);
  p.ts = sim::secs(1.75);
  r.handle(std::move(p));
  sim_.run();
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_DOUBLE_EQ(acks_[0].echo_ts.seconds(), 1.75);
}

TEST_F(ReceiverTest, AckCarriesAdvertisedWindow) {
  auto r = make_receiver(50000);
  r.handle(data(0, 1000));
  sim_.run();
  ASSERT_EQ(acks_.size(), 1u);
  EXPECT_EQ(acks_[0].rcvw_bytes, 50000);
}

TEST_F(ReceiverTest, RcvwUpdateAppliesToNextAck) {
  auto r = make_receiver(50000);
  r.set_rcvw_bytes(90000);
  r.handle(data(0, 1000));
  sim_.run();
  EXPECT_EQ(acks_[0].rcvw_bytes, 90000);
}

TEST_F(ReceiverTest, RcvwFlooredAtOneSegment) {
  auto r = make_receiver(50000);
  r.set_rcvw_bytes(10);  // would stall the sender
  EXPECT_GE(r.rcvw_bytes(), net::kDefaultMtuBytes);
}

TEST_F(ReceiverTest, NonDataPacketsIgnored) {
  auto r = make_receiver();
  auto ack = net::make_ack(scda::net::FlowId{1}, a_, b_, 500,
                           scda::sim::secs(0.0), scda::sim::secs(0.0), 0);
  EXPECT_FALSE(r.handle(std::move(ack)));
  EXPECT_EQ(r.next_expected(), 0);
  EXPECT_TRUE(acks_.empty());
}

TEST_F(ReceiverTest, DeliveredCounterTracksNewBytesOnly) {
  std::int64_t counter = 0;
  auto r = make_receiver();
  r.set_delivered_counter(&counter);
  r.handle(data(0, 1000));
  EXPECT_EQ(counter, 1000);
  r.handle(data(0, 1000));  // duplicate adds nothing
  EXPECT_EQ(counter, 1000);
  r.handle(data(2000, 1000));  // out of order adds nothing yet
  EXPECT_EQ(counter, 1000);
  r.handle(data(1000, 1000));  // fills hole -> +2000
  EXPECT_EQ(counter, 3000);
}

}  // namespace
}  // namespace scda::transport
