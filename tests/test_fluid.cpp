// FluidEngine semantics (docs/fluid_engine.md): analytic advancement,
// zero-rate parking, epoch-boundary completions, link byte accounting,
// the transport-layer mice/elephant mode decision, slot recycling under
// churn, and the fluid-vs-packet cross-validation of a full experiment.
#include "transport/fluid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "net/network.h"
#include "runner/experiment.h"
#include "sim/simulator.h"
#include "transport/transport_manager.h"
#include "util/units.h"
#include "workload/generators.h"

namespace scda::transport {
namespace {

// 8 Mbps => 1e6 bytes/s: sizes in whole bytes give exact second marks.
constexpr sim::BitRate kRate{8e6};
constexpr double kDelay = 1e-3;

class FluidEngineTest : public ::testing::Test {
 protected:
  FluidEngineTest() : net_(sim_) {
    a_ = net_.add_node(net::NodeRole::kServer);
    b_ = net_.add_node(net::NodeRole::kServer);
    auto [ab, ba] = net_.add_duplex(a_, b_, kRate, kDelay, 256 * 1500);
    link_ = ab;
    (void)ba;
    engine_ = std::make_unique<FluidEngine>(net_);
    engine_->set_completion_callback(
        [this](net::FlowId id) { completed_.push_back(id); });
  }

  [[nodiscard]] std::vector<net::LinkId> path() const { return {link_}; }

  sim::Simulator sim_;
  net::Network net_;
  net::NodeId a_, b_;
  net::LinkId link_;
  std::unique_ptr<FluidEngine> engine_;
  std::vector<net::FlowId> completed_;
};

TEST_F(FluidEngineTest, DeliversAtConstantRate) {
  const net::FlowId id = net::FlowId::from_index(0);
  engine_->start(id, 1'000'000, kRate, path());
  EXPECT_TRUE(engine_->has_flow(id));
  EXPECT_EQ(engine_->active_flows(), 1u);

  sim_.run_until(sim::secs(10.0));

  // 1e6 bytes at 1e6 B/s: injection 1 s, plus 1 ms one-way latency.
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(completed_[0], id);
  EXPECT_FALSE(engine_->has_flow(id));
  EXPECT_EQ(engine_->stats().completed, 1u);
  // Every byte was charged to the path link, exactly once.
  EXPECT_EQ(net_.link(link_).stats().fluid_bytes, 1'000'000u);
  EXPECT_EQ(net_.link(link_).stats().tx_bytes, 1'000'000u);
  EXPECT_EQ(net_.link(link_).fluid_flows(), 0);
}

TEST_F(FluidEngineTest, CompletionTimeIsAnalytic) {
  const net::FlowId id = net::FlowId::from_index(0);
  sim::Time done{};
  engine_->set_completion_callback(
      [&](net::FlowId) { done = sim_.now(); });
  engine_->start(id, 500'000, kRate, path());
  sim_.run_until(sim::secs(10.0));
  EXPECT_EQ(done, sim::secs(0.5) + sim::secs(kDelay));
}

TEST_F(FluidEngineTest, ZeroRateParksFlowUntilRevived) {
  const net::FlowId id = net::FlowId::from_index(0);
  engine_->start(id, 1'000'000, kRate, path());

  // Park at t=0.5 s (half delivered), then idle across several would-be
  // completion times: the flow must not finish and must not advance.
  sim_.post_at(sim::secs(0.5), [&] { engine_->set_rate(id, sim::BitRate{}); });
  sim_.run_until(sim::secs(20.0));
  ASSERT_TRUE(completed_.empty());
  ASSERT_TRUE(engine_->has_flow(id));
  EXPECT_NEAR(static_cast<double>(engine_->delivered_bytes(id)), 500'000, 1);
  EXPECT_EQ(engine_->rate(id).bps(), 0.0);

  // Revive: the remaining half takes another 0.5 s.
  sim_.post_at(sim::secs(20.0), [&] { engine_->set_rate(id, kRate); });
  sim_.run_until(sim::secs(20.4));
  EXPECT_TRUE(completed_.empty());  // still injecting
  sim_.run_until(sim::secs(25.0));
  ASSERT_EQ(completed_.size(), 1u);
  EXPECT_EQ(net_.link(link_).stats().fluid_bytes, 1'000'000u);
}

TEST_F(FluidEngineTest, RepeatedZeroRateEpochsAreStable) {
  const net::FlowId id = net::FlowId::from_index(0);
  engine_->start(id, 1'000'000, sim::BitRate{}, path());  // admitted parked

  // Many zero-rate epochs in a row: no progress, no events, no underflow.
  sim::PeriodicProcess epochs(sim_, sim::secs(0.05), [&] {
    engine_->rerate_all([](net::FlowId) { return sim::BitRate{}; },
                        /*epoch=*/true);
  });
  epochs.start(sim::secs(0.05));
  sim_.run_until(sim::secs(2.0));
  epochs.stop();

  EXPECT_TRUE(completed_.empty());
  EXPECT_EQ(engine_->delivered_bytes(id), 0);
  EXPECT_EQ(net_.link(link_).stats().fluid_bytes, 0u);
  EXPECT_GE(engine_->stats().epochs, 30u);
}

TEST_F(FluidEngineTest, CompletionExactlyOnEpochBoundaryFiresOnce) {
  // 100'000 bytes at 1e6 B/s finish injecting at exactly t=0.1 s — the
  // same instant as the first epoch tick. The tick's re-rate must observe
  // remaining == 0 and leave the already-armed completion event alone
  // (zero-delay link so both land on the same nanosecond).
  net::Network flat(sim_);
  const net::NodeId x = flat.add_node(net::NodeRole::kServer);
  const net::NodeId y = flat.add_node(net::NodeRole::kServer);
  auto [xy, yx] = flat.add_duplex(x, y, kRate, 0.0, 256 * 1500);
  (void)yx;
  FluidEngine eng(flat);
  int done = 0;
  sim::Time done_at{};
  eng.set_completion_callback([&](net::FlowId) {
    ++done;
    done_at = sim_.now();
  });

  sim::PeriodicProcess epochs(sim_, sim::secs(0.1), [&] {
    eng.rerate_all([](net::FlowId) { return kRate; }, /*epoch=*/true);
  });
  epochs.start(sim::secs(0.1));  // tick scheduled before the flow starts
  eng.start(net::FlowId::from_index(0), 100'000, kRate, {xy});
  sim_.run_until(sim::secs(1.0));
  epochs.stop();

  EXPECT_EQ(done, 1);
  EXPECT_EQ(done_at, sim::secs(0.1));
  EXPECT_EQ(flat.link(xy).stats().fluid_bytes, 100'000u);
  EXPECT_EQ(eng.active_flows(), 0u);
}

TEST_F(FluidEngineTest, ReRateMovesCompletionAnalytically) {
  const net::FlowId id = net::FlowId::from_index(0);
  sim::Time done{};
  engine_->set_completion_callback([&](net::FlowId) { done = sim_.now(); });
  engine_->start(id, 1'000'000, kRate, path());
  // Halve the rate at t=0.5: 500k bytes remain at 0.5e6 B/s -> 1 more s.
  sim_.post_at(sim::secs(0.5), [&] { engine_->set_rate(id, kRate / 2); });
  sim_.run_until(sim::secs(10.0));
  EXPECT_EQ(done, sim::secs(1.5) + sim::secs(kDelay));
  EXPECT_EQ(net_.link(link_).stats().fluid_bytes, 1'000'000u);
}

TEST_F(FluidEngineTest, ZeroByteFlowCompletesAfterLatency) {
  const net::FlowId id = net::FlowId::from_index(7);
  sim::Time done{};
  engine_->set_completion_callback([&](net::FlowId) { done = sim_.now(); });
  engine_->start(id, 0, kRate, path());
  sim_.run_until(sim::secs(1.0));
  EXPECT_EQ(done, sim::secs(kDelay));
  EXPECT_EQ(engine_->stats().completed, 1u);
}

TEST_F(FluidEngineTest, RejectsBadStarts) {
  const net::FlowId id = net::FlowId::from_index(0);
  engine_->start(id, 1000, kRate, path());
  EXPECT_THROW(engine_->start(id, 1000, kRate, path()),
               std::invalid_argument);
  EXPECT_THROW(
      engine_->start(net::FlowId::from_index(1), -1, kRate, path()),
      std::invalid_argument);
  EXPECT_THROW(engine_->set_rate(net::FlowId::from_index(9), kRate),
               std::invalid_argument);
  EXPECT_THROW((void)engine_->delivered_bytes(net::FlowId::from_index(9)),
               std::invalid_argument);
}

TEST_F(FluidEngineTest, SlotPoolStaysFlatUnderChurn) {
  // 50 waves of 4 concurrent flows: the pool must level off at the peak
  // concurrency, proving completed rows are recycled, not leaked.
  std::size_t next = 0;
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 4; ++i)
      engine_->start(net::FlowId::from_index(next++), 100'000, kRate,
                     path());
    sim_.run_until(sim_.now() + sim::secs(1.0));
    ASSERT_EQ(engine_->active_flows(), 0u);
  }
  EXPECT_EQ(engine_->stats().completed, 200u);
  EXPECT_LE(engine_->pool_slots(), 4u);
  EXPECT_EQ(net_.link(link_).fluid_flows(), 0);
  EXPECT_EQ(net_.link(link_).stats().fluid_bytes, 200u * 100'000u);
}

// ------------------------------------------------- transport decision ----

class FluidTransportTest : public ::testing::Test {
 protected:
  FluidTransportTest() : net_(sim_) {
    a_ = net_.add_node(net::NodeRole::kServer);
    b_ = net_.add_node(net::NodeRole::kServer);
    net_.add_duplex(a_, b_, util::mbps(100), kDelay, 256 * 1500);
    net_.build_routes();
    tm_ = std::make_unique<TransportManager>(net_);
    FluidConfig fc;
    fc.enabled = true;
    fc.threshold_bytes = 1000;
    tm_->set_fluid_config(fc);
    tm_->set_completion_callback(
        [this](const FlowRecord& rec) { finished_.push_back(rec.id); });
  }

  sim::Simulator sim_;
  net::Network net_;
  net::NodeId a_, b_;
  std::unique_ptr<TransportManager> tm_;
  std::vector<net::FlowId> finished_;
};

TEST_F(FluidTransportTest, ThresholdSplitsMiceFromElephants) {
  // Exactly at the threshold -> fluid; one byte below -> packet mode.
  const auto big = tm_->start_scda_flow(a_, b_, 1000, util::mbps(10),
                                        util::mbps(10));
  EXPECT_TRUE(big.fluid);
  EXPECT_EQ(big.sender, nullptr);
  EXPECT_TRUE(tm_->record(big.id).fluid);
  EXPECT_EQ(tm_->mode_switches(), 0u);

  const auto small = tm_->start_scda_flow(a_, b_, 999, util::mbps(10),
                                          util::mbps(10));
  EXPECT_FALSE(small.fluid);
  ASSERT_NE(small.sender, nullptr);
  EXPECT_FALSE(tm_->record(small.id).fluid);
  EXPECT_EQ(tm_->mode_switches(), 1u);

  sim_.run_until(sim::secs(30.0));
  EXPECT_EQ(finished_.size(), 2u);
  EXPECT_EQ(tm_->fluid().stats().completed, 1u);
}

TEST_F(FluidTransportTest, DisabledConfigKeepsEveryFlowPacket) {
  FluidConfig off;
  tm_->set_fluid_config(off);
  const auto h = tm_->start_scda_flow(a_, b_, 1'000'000, util::mbps(10),
                                      util::mbps(10));
  EXPECT_FALSE(h.fluid);
  EXPECT_NE(h.sender, nullptr);
  EXPECT_EQ(tm_->mode_switches(), 0u);
  EXPECT_EQ(tm_->fluid().stats().started, 0u);
}

TEST_F(FluidTransportTest, FluidFlowRecordGetsFinishTimeAndBytes) {
  const auto h = tm_->start_scda_flow(a_, b_, 100'000, util::mbps(8),
                                      util::mbps(8));
  ASSERT_TRUE(h.fluid);
  sim_.run_until(sim::secs(30.0));
  const FlowRecord& rec = tm_->record(h.id);
  EXPECT_TRUE(rec.finished());
  // 100 ms injection at 1e6 B/s plus the 1 ms path latency.
  EXPECT_EQ(rec.finish_time, sim::secs(0.1) + sim::secs(kDelay));
  EXPECT_EQ(tm_->total_delivered_bytes(), 100'000);
}

// --------------------------------------- fluid vs packet cross-check ----

runner::ExperimentConfig fluid_xval_config(bool fluid) {
  runner::ExperimentConfig cfg;
  cfg.name = fluid ? "xval-fluid" : "xval-packet";
  cfg.topology.n_agg = 2;
  cfg.topology.tors_per_agg = 2;
  cfg.topology.servers_per_tor = 4;
  cfg.topology.n_clients = 8;
  cfg.driver.end_time_s = 5.0;
  cfg.sim_time_s = 60.0;  // drain everything: both modes finish all flows
  cfg.seed = 7;
  cfg.fluid.enabled = fluid;
  cfg.make_generator = [] {
    workload::ParetoPoissonConfig w;
    w.arrival_rate = 30.0;
    return std::make_unique<workload::ParetoPoissonWorkload>(w);
  };
  return cfg;
}

TEST(FluidCrossValidation, MatchesPacketModeWithinTolerance) {
  const runner::AfctBinning bins;
  const auto packet =
      runner::run_once(fluid_xval_config(false), core::PlacementPolicy::kScda,
                       TransportKind::kScda, bins);
  const auto fluid =
      runner::run_once(fluid_xval_config(true), core::PlacementPolicy::kScda,
                       TransportKind::kScda, bins);

  // Same seed, same arrivals: both runs admit and drain the same flows.
  EXPECT_EQ(fluid.flows_completed, packet.flows_completed);
  EXPECT_GT(fluid.flows_completed, 100u);

  // The fluid run must actually have exercised fluid mode (elephants above
  // the 1 MiB default threshold) while keeping packet fidelity for mice.
  EXPECT_GT(fluid.metrics.value("transport.fluid_flows_completed"), 0.0);
  EXPECT_GT(fluid.metrics.value("transport.mode_switches"), 0.0);
  EXPECT_EQ(packet.metrics.value("transport.fluid_flows_completed", -1), 0.0);

  // Tolerances (documented in docs/fluid_engine.md): fluid flows skip
  // slow-start, queueing and loss recovery, so their FCTs sit slightly
  // below packet mode's. Empirically this config agrees to a few percent;
  // 10% bounds the model gap without masking real regressions.
  EXPECT_NEAR(fluid.summary.mean_fct_s, packet.summary.mean_fct_s,
              0.10 * packet.summary.mean_fct_s);
  EXPECT_NEAR(fluid.summary.goodput_bps, packet.summary.goodput_bps,
              0.10 * packet.summary.goodput_bps);
  EXPECT_EQ(fluid.summary.mean_size_bytes, packet.summary.mean_size_bytes);

  // And it must be cheaper: analytic elephants schedule O(epochs) events,
  // not O(packets).
  EXPECT_LT(fluid.events, packet.events);
}

}  // namespace
}  // namespace scda::transport
