// Focused transport-internals tests: RTO arming/backoff, Karn's rule,
// SRTT convergence, window accounting and completion edge cases.
#include <gtest/gtest.h>

#include <set>

#include "net/network.h"
#include "sim/simulator.h"
#include "transport/receiver.h"
#include "transport/transport_manager.h"

namespace scda::transport {
namespace {

struct Rig {
  explicit Rig(double cap = 10e6, double delay = 0.005,
               std::int64_t qlim = 1 << 20) {
    sim = std::make_unique<sim::Simulator>(1);
    net = std::make_unique<net::Network>(*sim);
    a = net->add_node(net::NodeRole::kClient);
    b = net->add_node(net::NodeRole::kServer);
    auto [f, r] = net->add_duplex(a, b, sim::BitRate{cap}, delay, qlim);
    ab = f;
    ba = r;
    net->build_routes();
    tm = std::make_unique<TransportManager>(*net);
    tm->set_completion_callback(
        [this](const FlowRecord& rec) { completed.push_back(rec.id); });
  }

  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<TransportManager> tm;
  net::NodeId a{}, b{};
  net::LinkId ab{}, ba{};
  std::vector<net::FlowId> completed;
};

TEST(TransportDetails, SrttConvergesToPathRtt) {
  Rig rig;
  auto h = rig.tm->start_scda_flow(rig.a, rig.b, 2'000'000, sim::BitRate{5e6},
                               sim::BitRate{5e6});
  rig.sim->run_until(scda::sim::secs(10.0));
  // Path RTT: 2*5ms propagation + serialization (1500B @ 10M ~ 1.2 ms)
  // + ack serialization. Converged SRTT must be close to that.
  EXPECT_GT(h.sender->srtt(), 0.010);
  EXPECT_LT(h.sender->srtt(), 0.016);
}

TEST(TransportDetails, KarnsRuleNoRttFromRetransmits) {
  // 100% loss for a while: every packet retransmitted after the blackout
  // carries ts=0 for the first (Karn-suppressed) copies. The SRTT after
  // recovery must still be sane (not contaminated by the blackout span).
  Rig rig;
  rig.net->link(rig.ab).set_error_model(1.0, &rig.sim->rng());
  auto h = rig.tm->start_scda_flow(rig.a, rig.b, 100'000, sim::BitRate{5e6},
                               sim::BitRate{5e6});
  rig.sim->post_at(scda::sim::secs(3.0), [&] {
    rig.net->link(rig.ab).set_error_model(0.0, nullptr);
  });
  rig.sim->run_until(scda::sim::secs(60.0));
  ASSERT_EQ(rig.completed.size(), 1u);
  EXPECT_GT(h.sender->stats().timeouts, 0u);
  // A contaminated sample would push SRTT towards seconds.
  EXPECT_LT(h.sender->srtt(), 0.5);
}

TEST(TransportDetails, RtoBacksOffExponentially) {
  // Total blackout: timeouts fire with doubling intervals, so over 10
  // simulated seconds only a handful of timeouts occur (1+2+4+... pattern)
  // rather than one per initial RTO.
  Rig rig;
  rig.net->link(rig.ab).set_error_model(1.0, &rig.sim->rng());
  auto h = rig.tm->start_scda_flow(rig.a, rig.b, 50'000, sim::BitRate{5e6},
                               sim::BitRate{5e6});
  rig.sim->run_until(scda::sim::secs(15.0));
  EXPECT_FALSE(h.sender->fully_acked());
  EXPECT_GE(h.sender->stats().timeouts, 2u);
  EXPECT_LE(h.sender->stats().timeouts, 6u);  // backoff caps the count
}

TEST(TransportDetails, SenderStopsAfterFullAck) {
  Rig rig;
  auto h = rig.tm->start_scda_flow(rig.a, rig.b, 100'000, sim::BitRate{8e6},
                               sim::BitRate{8e6});
  rig.sim->run_until(scda::sim::secs(10.0));
  ASSERT_TRUE(h.sender->fully_acked());
  const auto sent = h.sender->stats().data_packets_sent;
  rig.sim->run_until(scda::sim::secs(30.0));  // nothing further should happen
  EXPECT_EQ(h.sender->stats().data_packets_sent, sent);
  EXPECT_EQ(rig.net->link(rig.ab).queue_bytes(), 0);
}

TEST(TransportDetails, CompletionReportedExactlyOncePerFlow) {
  Rig rig;
  for (int i = 0; i < 10; ++i)
    rig.tm->start_scda_flow(rig.a, rig.b, 50'000, sim::BitRate{2e6},
                               sim::BitRate{2e6});
  rig.sim->run_until(scda::sim::secs(60.0));
  ASSERT_EQ(rig.completed.size(), 10u);
  std::set<net::FlowId> unique(rig.completed.begin(), rig.completed.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(TransportDetails, FlowRecordsTrackLifecycle) {
  Rig rig;
  const auto id = rig.tm->start_tcp_flow(rig.a, rig.b, 30'000);
  const FlowRecord& rec = rig.tm->record(id);
  EXPECT_FALSE(rec.finished());
  EXPECT_DOUBLE_EQ(rec.fct(), -1.0);
  rig.sim->run_until(scda::sim::secs(10.0));
  EXPECT_TRUE(rec.finished());
  EXPECT_GT(rec.fct(), 0.0);
  EXPECT_EQ(rec.transport, TransportKind::kTcp);
}

TEST(TransportDetails, AbortedFlowPacketsReachNeitherAgent) {
  // The second flow is aborted with DATA and ACKs on the wire. They still
  // arrive, but at neither agent, so the receiver's cumulative point and
  // the sender's counters stay where the abort left them.
  Rig rig;
  const auto done = rig.tm->start_scda_flow(
      rig.a, rig.b, 30'000, sim::BitRate{8e6}, sim::BitRate{8e6});
  rig.sim->run_until(scda::sim::secs(0.5));
  ASSERT_EQ(rig.completed, std::vector<net::FlowId>{done.id});

  const auto h = rig.tm->start_scda_flow(
      rig.a, rig.b, 1'000'000, sim::BitRate{8e6}, sim::BitRate{8e6});
  rig.sim->run_until(scda::sim::secs(0.6));
  const std::int64_t received = h.receiver->next_expected();
  const std::int64_t acked = h.sender->acked_bytes();
  const SenderStats sent = h.sender->stats();
  constexpr std::int32_t kMss = net::kDefaultMtuBytes - net::kHeaderBytes;
  ASSERT_EQ(sent.retransmits, 0u);
  // Segments sent past the receiver's point are on the wire, and so is an
  // ACK for the bytes received past the sender's.
  ASSERT_GT(static_cast<std::int64_t>(sent.data_packets_sent) * kMss,
            received);
  ASSERT_LT(acked, received);

  ASSERT_TRUE(rig.tm->abort_flow(h.id));
  rig.sim->run_until(scda::sim::secs(2.0));
  EXPECT_EQ(h.receiver->next_expected(), received);
  EXPECT_EQ(h.sender->acked_bytes(), acked);
  EXPECT_EQ(h.sender->stats().data_packets_sent, sent.data_packets_sent);
  EXPECT_EQ(h.sender->stats().retransmits, 0u);
  EXPECT_EQ(h.sender->stats().timeouts, sent.timeouts);
  EXPECT_EQ(rig.completed.size(), 1u);

  // A stray duplicate of the completed flow's DATA is still acknowledged,
  // without a second completion.
  const auto acks = rig.net->link(rig.ba).stats().tx_packets;
  rig.net->send(
      net::make_data(done.id, rig.a, rig.b, 0, kMss, rig.sim->now()));
  rig.sim->run_until(scda::sim::secs(3.0));
  EXPECT_EQ(rig.net->link(rig.ba).stats().tx_packets, acks + 1);
  EXPECT_EQ(done.receiver->next_expected(), 30'000);
  EXPECT_EQ(rig.completed.size(), 1u);
}

TEST(TransportDetails, MinRcvwNeverStallsScdaFlow) {
  // Receiver window floored at one MTU: even a zero-rate advertisement
  // keeps one segment per RTT moving and the flow finishes.
  Rig rig;
  auto h = rig.tm->start_scda_flow(rig.a, rig.b, 30'000, sim::BitRate{5e6},
                               sim::BitRate{5e6});
  h.receiver->set_rcvw_bytes(0);
  rig.sim->run_until(scda::sim::secs(30.0));
  EXPECT_EQ(rig.completed.size(), 1u);
}

TEST(TransportDetails, TwoCompetingScdaFlowsShareFairlyWhenRatesSay) {
  Rig rig;
  auto h1 = rig.tm->start_scda_flow(rig.a, rig.b, 4'000'000, sim::BitRate{5e6},
                               sim::BitRate{5e6});
  auto h2 = rig.tm->start_scda_flow(rig.a, rig.b, 4'000'000, sim::BitRate{5e6},
                               sim::BitRate{5e6});
  (void)h1;
  (void)h2;
  rig.sim->run_until(scda::sim::secs(60.0));
  ASSERT_EQ(rig.completed.size(), 2u);
  const double f1 = rig.tm->record(net::FlowId{0}).fct();
  const double f2 = rig.tm->record(net::FlowId{1}).fct();
  EXPECT_NEAR(f1 / f2, 1.0, 0.1);  // both paced at 5M on a 10M link
}

}  // namespace
}  // namespace scda::transport
