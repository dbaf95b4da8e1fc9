// Robustness under random loss (NS2-style error model) and reassembly
// fuzzing: both transports must deliver every byte exactly once no matter
// how the network drops, reorders or duplicates segments.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/network.h"
#include "sim/simulator.h"
#include "transport/receiver.h"
#include "transport/transport_manager.h"

namespace scda {
namespace {

class LossyPath : public ::testing::TestWithParam<double> {
 protected:
  void build(double loss) {
    sim_ = std::make_unique<sim::Simulator>(13);
    net_ = std::make_unique<net::Network>(*sim_);
    a_ = net_->add_node(net::NodeRole::kClient);
    b_ = net_->add_node(net::NodeRole::kServer);
    auto [ab, ba] = net_->add_duplex(a_, b_, sim::BitRate{20e6}, 0.005, 1 << 20);
    net_->build_routes();
    // Lossy data direction; ACK path stays clean so the loss signal is
    // unambiguous (drop ACKs too in the Bidirectional test below).
    net_->link(ab).set_error_model(loss, &sim_->rng());
    (void)ba;
    tm_ = std::make_unique<transport::TransportManager>(*net_);
    tm_->set_completion_callback(
        [this](const transport::FlowRecord& r) { completed_.push_back(r.id); });
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<transport::TransportManager> tm_;
  net::NodeId a_{}, b_{};
  std::vector<net::FlowId> completed_;
};

TEST_P(LossyPath, TcpDeliversEverythingUnderLoss) {
  build(GetParam());
  tm_->start_tcp_flow(a_, b_, 600'000);
  sim_->run_until(scda::sim::secs(300.0));
  ASSERT_EQ(completed_.size(), 1u);
  auto* r = tm_->receiver(scda::net::FlowId{0});
  EXPECT_EQ(r->next_expected(), 600'000);
}

TEST_P(LossyPath, ScdaDeliversEverythingUnderLoss) {
  build(GetParam());
  auto h = tm_->start_scda_flow(a_, b_, 600'000, sim::BitRate{10e6}, sim::BitRate{10e6});
  sim_->run_until(scda::sim::secs(300.0));
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(h.receiver->next_expected(), 600'000);
  // At 0.1% loss a ~400-packet flow often sees no drop at all; only the
  // heavier rates are guaranteed to exercise the repair path.
  if (GetParam() >= 0.01) {
    EXPECT_GT(h.sender->stats().retransmits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossyPath,
                         ::testing::Values(0.0, 0.001, 0.01, 0.05));

TEST(BidirectionalLoss, AckLossIsSurvivable) {
  sim::Simulator sim(29);
  net::Network net(sim);
  const auto a = net.add_node(net::NodeRole::kClient);
  const auto b = net.add_node(net::NodeRole::kServer);
  auto [ab, ba] = net.add_duplex(a, b, sim::BitRate{20e6}, 0.005, 1 << 20);
  net.build_routes();
  net.link(ab).set_error_model(0.02, &sim.rng());
  net.link(ba).set_error_model(0.02, &sim.rng());  // ACKs dropped too
  transport::TransportManager tm(net);
  int done = 0;
  tm.set_completion_callback([&](const transport::FlowRecord&) { ++done; });
  tm.start_tcp_flow(a, b, 300'000);
  tm.start_scda_flow(a, b, 300'000, sim::BitRate{8e6}, sim::BitRate{8e6});
  sim.run_until(scda::sim::secs(300.0));
  EXPECT_EQ(done, 2);
}

// --- reassembly fuzz ---------------------------------------------------------

class ReassemblyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReassemblyFuzz, RandomOrderDuplicatesAndOverlaps) {
  sim::Simulator sim(GetParam());
  net::Network net(sim);
  const auto a = net.add_node(net::NodeRole::kClient);
  const auto b = net.add_node(net::NodeRole::kServer);
  net.add_duplex(a, b, sim::BitRate{1e9}, 0.0001, 1 << 24);
  net.build_routes();

  constexpr std::int64_t kSize = 200'000;
  transport::FlowRecord rec;
  rec.id = net::FlowId{1};
  rec.src = a;
  rec.dst = b;
  rec.size_bytes = kSize;
  int completions = 0;
  std::int64_t delivered = 0;
  transport::Receiver recv(net, rec, 1 << 20);
  recv.set_delivered_counter(&delivered);

  // Chop the content into random segments; shuffle; duplicate some;
  // add random overlapping ranges.
  sim::Rng& rng = sim.rng();
  std::vector<std::pair<std::int64_t, std::int32_t>> segs;
  std::int64_t at = 0;
  while (at < kSize) {
    const auto len = static_cast<std::int32_t>(std::min<std::int64_t>(
        rng.uniform_int(1, 1460), kSize - at));
    segs.emplace_back(at, len);
    at += len;
  }
  const auto original = segs.size();
  for (std::size_t i = 0; i < original / 4; ++i) {
    segs.push_back(segs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(original) - 1))]);
    const std::int64_t lo = rng.uniform_int(0, kSize - 2);
    const auto len = static_cast<std::int32_t>(std::min<std::int64_t>(
        rng.uniform_int(1, 2000), kSize - lo));
    segs.emplace_back(lo, len);
  }
  std::shuffle(segs.begin(), segs.end(), rng.engine());

  for (const auto& [seq, len] : segs) {
    if (recv.handle(
            net::make_data(scda::net::FlowId{1}, a, b, seq, len, sim.now())))
      ++completions;
  }

  EXPECT_EQ(recv.next_expected(), kSize);
  EXPECT_EQ(delivered, kSize);  // every byte delivered exactly once
  EXPECT_EQ(completions, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyFuzz,
                         ::testing::Values(1, 7, 42, 1337, 9999));

}  // namespace
}  // namespace scda
