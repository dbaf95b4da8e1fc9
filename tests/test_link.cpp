#include "net/link.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulator.h"

namespace scda::net {
namespace {

Packet data_packet(std::int32_t payload, FlowId flow = FlowId{1}) {
  return make_data(flow, NodeId{0}, NodeId{1}, 0, payload, sim::Time{});
}

class LinkTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  PacketPool pool_;
};

TEST_F(LinkTest, SinglePacketTimingIsTxPlusPropagation) {
  // 1500B wire @ 1 Mbps = 12 ms tx, plus 10 ms propagation.
  Link link(sim_, pool_, LinkId{0}, NodeId{0}, NodeId{1}, sim::BitRate{1e6},
            0.010, 1 << 20);
  std::vector<double> arrivals;
  link.set_deliver([&](Packet&&) { arrivals.push_back(sim_.now().seconds()); });
  ASSERT_TRUE(link.enqueue(data_packet(1500 - kHeaderBytes)));
  sim_.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_NEAR(arrivals[0], 0.012 + 0.010, 1e-9);
}

TEST_F(LinkTest, BackToBackPacketsSerialize) {
  Link link(sim_, pool_, LinkId{0}, NodeId{0}, NodeId{1}, sim::BitRate{1e6},
            0.010, 1 << 20);
  std::vector<double> arrivals;
  link.set_deliver([&](Packet&&) { arrivals.push_back(sim_.now().seconds()); });
  ASSERT_TRUE(link.enqueue(data_packet(1500 - kHeaderBytes)));
  ASSERT_TRUE(link.enqueue(data_packet(1500 - kHeaderBytes)));
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[1] - arrivals[0], 0.012, 1e-9);  // one tx time apart
}

TEST_F(LinkTest, DropTailWhenQueueFull) {
  // Queue fits exactly two 1500-byte packets.
  Link link(sim_, pool_, LinkId{0}, NodeId{0}, NodeId{1}, sim::BitRate{1e6},
            0.001, 3000);
  int delivered = 0;
  link.set_deliver([&](Packet&&) { ++delivered; });
  EXPECT_TRUE(link.enqueue(data_packet(1460)));
  EXPECT_TRUE(link.enqueue(data_packet(1460)));
  EXPECT_FALSE(link.enqueue(data_packet(1460)));  // third is dropped
  sim_.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.stats().dropped_packets, 1u);
  EXPECT_EQ(link.stats().tx_packets, 2u);
}

TEST_F(LinkTest, QueueBytesReflectsOccupancy) {
  Link link(sim_, pool_, LinkId{0}, NodeId{0}, NodeId{1}, sim::BitRate{1e6},
            0.001, 1 << 20);
  EXPECT_EQ(link.queue_bytes(), 0);
  ASSERT_TRUE(link.enqueue(data_packet(1460)));
  ASSERT_TRUE(link.enqueue(data_packet(1460)));
  EXPECT_EQ(link.queue_bytes(), 3000);
  sim_.run();
  EXPECT_EQ(link.queue_bytes(), 0);
}

TEST_F(LinkTest, IntervalArrivalCounterIncludesDrops) {
  Link link(sim_, pool_, LinkId{0}, NodeId{0}, NodeId{1}, sim::BitRate{1e6},
            0.001, 1500);
  ASSERT_TRUE(link.enqueue(data_packet(1460)));
  EXPECT_FALSE(link.enqueue(data_packet(1460)));  // dropped but offered
  EXPECT_EQ(link.interval_arrived_bytes(), 3000);
  EXPECT_EQ(link.take_interval_arrived_bytes(), 3000);
  EXPECT_EQ(link.interval_arrived_bytes(), 0);  // reset
}

TEST_F(LinkTest, StatsAccumulateBytes) {
  Link link(sim_, pool_, LinkId{0}, NodeId{0}, NodeId{1}, sim::BitRate{1e6},
            0.001, 1 << 20);
  link.set_deliver([](Packet&&) {});
  ASSERT_TRUE(link.enqueue(data_packet(1460)));
  sim_.run();
  EXPECT_EQ(link.stats().tx_bytes, 1500u);
  EXPECT_EQ(link.stats().enqueued_packets, 1u);
}

TEST_F(LinkTest, UtilizationMatchesTransmittedBits) {
  Link link(sim_, pool_, LinkId{0}, NodeId{0}, NodeId{1}, sim::BitRate{1e6},
            0.0, 1 << 20);
  link.set_deliver([](Packet&&) {});
  // 10 packets * 1500 B = 120 kbit over 1 s at 1 Mbps -> 12% utilization
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(link.enqueue(data_packet(1460)));
  sim_.run();
  EXPECT_NEAR(link.utilization(1.0), 0.12, 1e-9);
}

TEST_F(LinkTest, CapacityChangeAffectsSubsequentPackets) {
  Link link(sim_, pool_, LinkId{0}, NodeId{0}, NodeId{1}, sim::BitRate{1e6},
            0.0, 1 << 20);
  std::vector<double> arrivals;
  link.set_deliver([&](Packet&&) { arrivals.push_back(sim_.now().seconds()); });
  ASSERT_TRUE(link.enqueue(data_packet(1460)));
  sim_.run();
  link.set_capacity(sim::BitRate{2e6});  // reserve capacity switched in
  ASSERT_TRUE(link.enqueue(data_packet(1460)));
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.012, 1e-9);
  EXPECT_NEAR(arrivals[1] - arrivals[0], 0.006, 1e-9);
}

TEST_F(LinkTest, DeliveryPreservesPacketFields) {
  Link link(sim_, pool_, LinkId{7}, NodeId{0}, NodeId{1}, sim::BitRate{1e6},
            0.001, 1 << 20);
  Packet got;
  link.set_deliver([&](Packet&& p) { got = p; });
  Packet p = make_data(scda::net::FlowId{42}, scda::net::NodeId{3},
                       scda::net::NodeId{9}, 1000, 500, sim::secs(1.25));
  p.rcvw_bytes = 777;
  ASSERT_TRUE(link.enqueue(std::move(p)));
  sim_.run();
  EXPECT_EQ(got.flow, FlowId{42});
  EXPECT_EQ(got.src, NodeId{3});
  EXPECT_EQ(got.dst, NodeId{9});
  EXPECT_EQ(got.seq, 1000);
  EXPECT_EQ(got.payload_bytes, 500);
  EXPECT_EQ(got.rcvw_bytes, 777);
  EXPECT_DOUBLE_EQ(got.ts.seconds(), 1.25);
}

TEST_F(LinkTest, CutLinkDeliversPacketsOnTheWireAndDropsNewOnes) {
  // 1500B wire @ 1 Mbps = 12 ms tx, then 50 ms propagation. At 30 ms both
  // packets have left the queue and are propagating when the link is cut:
  // they still arrive, while a packet offered to the down link is dropped.
  Link link(sim_, pool_, LinkId{0}, NodeId{0}, NodeId{1}, sim::BitRate{1e6},
            0.050, 1 << 20);
  std::vector<double> arrivals;
  link.set_deliver([&](Packet&&) { arrivals.push_back(sim_.now().seconds()); });
  ASSERT_TRUE(link.enqueue(data_packet(1500 - kHeaderBytes)));
  ASSERT_TRUE(link.enqueue(data_packet(1500 - kHeaderBytes)));
  sim_.run_until(sim::secs(0.030));
  ASSERT_EQ(link.stats().tx_packets, 2u);
  ASSERT_TRUE(arrivals.empty());

  link.set_up(false);
  EXPECT_FALSE(link.enqueue(data_packet(1500 - kHeaderBytes)));
  EXPECT_EQ(link.stats().dropped_packets, 1u);
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.012 + 0.050, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.024 + 0.050, 1e-9);
  EXPECT_EQ(link.stats().tx_packets, 2u);
}

// The delivery timer waits `due - now` for the head of the propagation
// stage; both are exact integer-nanosecond times.
TEST(LinkDeliveryDelay, PositiveDelayPassesThrough) {
  EXPECT_DOUBLE_EQ(
      Link::delivery_delay(scda::sim::secs(2.0), scda::sim::secs(1.0))
          .seconds(),
      1.0);
  EXPECT_DOUBLE_EQ(
      Link::delivery_delay(scda::sim::secs(1.0), scda::sim::secs(1.0))
          .seconds(),
      0.0);
}

TEST(LinkDeliveryDelay, SubNanosecondGapIsZeroDelay) {
  // `due` one ulp below `now` in double seconds: far less than a
  // nanosecond apart, so both round to the same SimTime and the delay is
  // exactly zero.
  const double now = 1000.0;
  const double due = std::nextafter(now, 0.0);
  ASSERT_LT(due - now, 0.0);
  EXPECT_DOUBLE_EQ(
      Link::delivery_delay(scda::sim::secs(due), scda::sim::secs(now))
          .seconds(),
      0.0);

  const double small_now = 1e-3;
  const double small_due = std::nextafter(small_now, 0.0);
  EXPECT_DOUBLE_EQ(
      Link::delivery_delay(scda::sim::secs(small_due),
                           scda::sim::secs(small_now))
          .seconds(),
      0.0);
}

TEST_F(LinkTest, AdversarialPropagationDelaysNeverThrow) {
  // Stress the tx/propagation interleaving with a propagation delay chosen
  // so tx-complete and delivery deadlines land on awkward non-dyadic
  // fractions, accumulating rounding drift across tens of thousands of
  // events. The run must complete without schedule_in throwing and deliver
  // every packet exactly once.
  //
  // capacity chosen so tx time per 83-byte wire packet = 83*8/0.9e6 s
  // (a repeating binary fraction); prop delay 1/3e-4 likewise.
  Link link(sim_, pool_, LinkId{0}, NodeId{0}, NodeId{1}, sim::BitRate{0.9e6},
            1.0 / 3.0 * 1e-4, 1 << 22);
  std::uint64_t delivered = 0;
  std::uint64_t sent = 0;
  const std::uint64_t kPackets = 50'000;
  link.set_deliver([&](Packet&&) {
    ++delivered;
    if (sent < kPackets) {
      ++sent;
      ASSERT_TRUE(link.enqueue(
          make_data(scda::net::FlowId{1}, scda::net::NodeId{0},
                    scda::net::NodeId{1}, 0, 83 - kHeaderBytes, sim_.now())));
    }
  });
  for (int i = 0; i < 3; ++i) {
    ++sent;
    ASSERT_TRUE(link.enqueue(
        make_data(scda::net::FlowId{1}, scda::net::NodeId{0},
                  scda::net::NodeId{1}, 0, 83 - kHeaderBytes, sim::Time{})));
  }
  ASSERT_NO_THROW(sim_.run());
  EXPECT_EQ(delivered, sent);
}

}  // namespace
}  // namespace scda::net
