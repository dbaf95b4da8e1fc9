#include "core/rate_allocator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"

namespace scda::core {
namespace {

/// Line network a - m - b: two shared links per direction. Flows a->b share
/// both; flows a->m only the first.
class RateAllocatorTest : public ::testing::Test {
 protected:
  RateAllocatorTest() : net_(sim_) {
    a_ = net_.add_node(net::NodeRole::kClient);
    m_ = net_.add_node(net::NodeRole::kOther);
    b_ = net_.add_node(net::NodeRole::kServer);
    auto [am, ma] = net_.add_duplex(a_, m_, sim::BitRate{100e6}, 0.001, 1 << 20);
    auto [mb, bm] = net_.add_duplex(m_, b_, sim::BitRate{50e6}, 0.001, 1 << 20);
    am_ = am;
    mb_ = mb;
    (void)ma;
    (void)bm;
    net_.build_routes();
    params_.alpha = 1.0;  // exact capacities for easy arithmetic
    params_.beta = 0.5;
    params_.tau = 0.05;
  }

  RateAllocator make() { return RateAllocator(net_, params_); }
  void settle(RateAllocator& alloc, int ticks = 30) {
    for (int i = 0; i < ticks; ++i) alloc.tick();
  }

  sim::Simulator sim_;
  net::Network net_;
  net::NodeId a_{}, m_{}, b_{};
  net::LinkId am_{}, mb_{};
  ScdaParams params_;
};

TEST_F(RateAllocatorTest, IdleLinksOfferFullEffectiveCapacity) {
  auto alloc = make();
  EXPECT_DOUBLE_EQ(alloc.link_rate(am_).bps(), 100e6);
  EXPECT_DOUBLE_EQ(alloc.link_rate(mb_).bps(), 50e6);
  settle(alloc);
  EXPECT_DOUBLE_EQ(alloc.link_rate(am_).bps(), 100e6);
}

TEST_F(RateAllocatorTest, PathRateIsBottleneckMin) {
  auto alloc = make();
  EXPECT_DOUBLE_EQ(alloc.path_rate(a_, b_).bps(), 50e6);
  EXPECT_DOUBLE_EQ(alloc.path_rate(a_, m_).bps(), 100e6);
}

TEST_F(RateAllocatorTest, SingleFlowGetsBottleneckCapacity) {
  auto alloc = make();
  alloc.register_flow(scda::net::FlowId{1}, a_, b_);
  settle(alloc);
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{1}).bps(), 50e6, 1e3);
}

TEST_F(RateAllocatorTest, EqualFlowsShareEqually) {
  auto alloc = make();
  for (net::FlowId f{1}; f <= net::FlowId{4}; ++f) {
    alloc.register_flow(f, a_, b_);
  }
  settle(alloc);
  for (net::FlowId f{1}; f <= net::FlowId{4}; ++f)
    EXPECT_NEAR(alloc.flow_rate(f).bps(), 50e6 / 4, 1e3) << "flow " << f.value();
}

TEST_F(RateAllocatorTest, MaxMinFairnessAcrossHeterogeneousPaths) {
  // Classic parking lot: one long flow a->b plus three short flows a->m.
  // Long flow is bottlenecked at the 50M link; the three short flows split
  // the remaining 100M - share so that the a->m link is fully used.
  auto alloc = make();
  alloc.register_flow(scda::net::FlowId{1}, a_, b_);
  for (net::FlowId f{2}; f <= net::FlowId{4}; ++f) {
    alloc.register_flow(f, a_, m_);
  }
  settle(alloc, 200);
  const double long_rate = alloc.flow_rate(scda::net::FlowId{1}).bps();
  const double short_rate = alloc.flow_rate(scda::net::FlowId{2}).bps();
  // Weighted max-min fixed point: long flow limited by the 50M link but the
  // a->m link's fair share is 100/4 = 25M < 50M, so all four flows get 25M
  // ... unless the long flow is counted fractionally. With the long flow
  // taking r1 = min(50, rho_am) and shorts rho_am each:
  //   rho_am solves 3*rho + min(50, rho) = 100 -> rho = 25.
  EXPECT_NEAR(short_rate, 25e6, 1e5);
  EXPECT_NEAR(long_rate, 25e6, 1e5);
  // Total on the shared link never exceeds capacity.
  EXPECT_LE(alloc.link_rate_sum(am_).bps(), 100e6 * 1.001);
}

TEST_F(RateAllocatorTest, BottleneckedElsewhereFreesCapacity) {
  // One flow a->b (bottleneck 50M at mb), one flow a->m. The a->m flow
  // should get 100 - 50 = 50M, not 100/2 (max-min property, eq. 3).
  auto alloc = make();
  alloc.register_flow(scda::net::FlowId{1}, a_, b_);
  alloc.register_flow(scda::net::FlowId{2}, a_, m_);
  settle(alloc, 200);
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{1}).bps(), 50e6, 5e5);
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{2}).bps(), 50e6, 5e5);
}

TEST_F(RateAllocatorTest, PriorityWeightsSkewShares) {
  auto alloc = make();
  alloc.register_flow(scda::net::FlowId{1}, a_, b_, /*priority=*/3.0);
  alloc.register_flow(scda::net::FlowId{2}, a_, b_, /*priority=*/1.0);
  settle(alloc, 100);
  // Weighted fair: 3:1 split of 50M.
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{1}).bps(), 37.5e6, 5e5);
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{2}).bps(), 12.5e6, 5e5);
}

TEST_F(RateAllocatorTest, PriorityChangeTakesEffect) {
  auto alloc = make();
  alloc.register_flow(scda::net::FlowId{1}, a_, b_, 1.0);
  alloc.register_flow(scda::net::FlowId{2}, a_, b_, 1.0);
  settle(alloc, 50);
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{1}).bps(), 25e6, 5e5);
  alloc.set_priority(scda::net::FlowId{1}, 4.0);
  EXPECT_DOUBLE_EQ(alloc.priority(scda::net::FlowId{1}), 4.0);
  settle(alloc, 100);
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{1}).bps(), 40e6, 5e5);
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{2}).bps(), 10e6, 5e5);
}

TEST_F(RateAllocatorTest, ReservationGuaranteesMinimumRate) {
  auto alloc = make();
  // 10 unit flows plus one with a 30M reservation on the 50M bottleneck.
  alloc.register_flow(scda::net::FlowId{1}, a_, b_, 1.0, /*reserved=*/sim::BitRate{30e6});
  for (net::FlowId f{2}; f <= net::FlowId{11}; ++f) {
    alloc.register_flow(f, a_, b_);
  }
  settle(alloc, 200);
  EXPECT_GE(alloc.flow_rate(scda::net::FlowId{1}).bps(), 30e6);
  // Others share the remaining ~20M.
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{2}).bps(), 20e6 / 11.0, 5e5);
}

TEST_F(RateAllocatorTest, UnregisterRestoresShares) {
  auto alloc = make();
  alloc.register_flow(scda::net::FlowId{1}, a_, b_);
  alloc.register_flow(scda::net::FlowId{2}, a_, b_);
  settle(alloc, 50);
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{1}).bps(), 25e6, 5e5);
  alloc.unregister_flow(scda::net::FlowId{2});
  EXPECT_FALSE(alloc.has_flow(scda::net::FlowId{2}));
  settle(alloc, 50);
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{1}).bps(), 50e6, 5e5);
  EXPECT_DOUBLE_EQ(alloc.flow_rate(scda::net::FlowId{2}).bps(), 0.0);
}

TEST_F(RateAllocatorTest, DoubleRegistrationThrows) {
  auto alloc = make();
  alloc.register_flow(scda::net::FlowId{1}, a_, b_);
  EXPECT_THROW(alloc.register_flow(scda::net::FlowId{1}, a_, b_),
               std::logic_error);
}

TEST_F(RateAllocatorTest, ImmediateFeedbackOnRegistration) {
  // Flows admitted within the same control interval must not all be quoted
  // the full link rate (the burst-loss bug this guards against).
  auto alloc = make();
  settle(alloc, 2);
  alloc.register_flow(scda::net::FlowId{1}, a_, b_);
  // first: the full bottleneck
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{1}).bps(), 50e6, 1e3);
  alloc.register_flow(scda::net::FlowId{2}, a_, b_);
  // second: gamma/2
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{2}).bps(), 25e6, 1e3);
  alloc.register_flow(scda::net::FlowId{3}, a_, b_);
  // third: gamma/3
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{3}).bps(), 50e6 / 3, 1e3);
}

TEST_F(RateAllocatorTest, ProspectiveRateAnticipatesNewFlow) {
  auto alloc = make();
  settle(alloc, 2);
  // Idle link: a new flow would get the whole capacity.
  EXPECT_NEAR(alloc.prospective_link_rate(mb_).bps(), 50e6, 1e3);
  alloc.register_flow(scda::net::FlowId{1}, a_, b_);
  settle(alloc, 50);
  // link_rate still advertises the single flow's full share, but the
  // prospective rate halves — this is what route selection compares.
  EXPECT_NEAR(alloc.link_rate(mb_).bps(), 50e6, 1e5);
  EXPECT_NEAR(alloc.prospective_link_rate(mb_).bps(), 25e6, 1e5);
  // A heavier prospective flow sees a proportionally smaller share.
  EXPECT_NEAR(alloc.prospective_link_rate(mb_, 3.0).bps(), 50e6 / 4, 1e5);
}

TEST_F(RateAllocatorTest, ROtherConstrainsFlowRate) {
  auto alloc = make();
  alloc.register_flow(scda::net::FlowId{1}, a_, b_, 1.0, sim::BitRate{}, /*send=*/nullptr,
                      /*recv=*/[] { return sim::BitRate{7e6}; });
  settle(alloc);
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{1}).bps(), 7e6, 1e3);
}

TEST_F(RateAllocatorTest, ROtherReleasedCapacityGoesToOthers) {
  auto alloc = make();
  alloc.register_flow(scda::net::FlowId{1}, a_, b_, 1.0, sim::BitRate{}, nullptr,
                      [] { return sim::BitRate{5e6}; });
  alloc.register_flow(scda::net::FlowId{2}, a_, b_);
  settle(alloc, 200);
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{1}).bps(), 5e6, 1e3);
  // picks up the slack
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{2}).bps(), 45e6, 5e5);
}

TEST_F(RateAllocatorTest, SlaViolationDetectedOnOversubscription) {
  auto alloc = make();
  std::uint64_t events = 0;
  net::LinkId last_link = net::kInvalidLink;
  alloc.set_sla_callback(
      [&](net::LinkId l, sim::BitRate s, sim::BitRate g, sim::Time) {
        ++events;
        last_link = l;
        EXPECT_GT(s.bps(), g.bps());
      });
  // Reservations exceeding the bottleneck capacity guarantee violation.
  alloc.register_flow(scda::net::FlowId{1}, a_, b_, 1.0, sim::BitRate{40e6});
  alloc.register_flow(scda::net::FlowId{2}, a_, b_, 1.0, sim::BitRate{40e6});
  settle(alloc, 5);
  EXPECT_GT(events, 0u);
  EXPECT_GT(alloc.sla_violations(), 0u);
  EXPECT_EQ(last_link, mb_);  // the 50M link is the one oversubscribed
  EXPECT_GT(alloc.sla_violations(mb_), 0u);
}

TEST_F(RateAllocatorTest, NoSlaViolationUnderNormalLoad) {
  auto alloc = make();
  alloc.register_flow(scda::net::FlowId{1}, a_, b_);
  alloc.register_flow(scda::net::FlowId{2}, a_, b_);
  settle(alloc, 50);
  // Converged allocations sum below capacity: no violations after the
  // transient (allow the registration transient itself).
  const auto early = alloc.sla_violations();
  settle(alloc, 100);
  EXPECT_EQ(alloc.sla_violations(), early);
}

TEST_F(RateAllocatorTest, RatesStayNonNegativeAndBounded) {
  auto alloc = make();
  for (net::FlowId f{1}; f <= net::FlowId{50}; ++f)
    alloc.register_flow(f, a_, b_, 1.0 + static_cast<double>(f.value() % 3));
  for (int i = 0; i < 100; ++i) {
    alloc.tick();
    for (net::FlowId f{1}; f <= net::FlowId{50}; ++f) {
      EXPECT_GE(alloc.flow_rate(f).bps(), params_.min_rate.bps() * 0.99);
      EXPECT_LE(alloc.flow_rate(f).bps(), 100e6 * 3 + 1);
    }
  }
}

TEST_F(RateAllocatorTest, OutputIndependentOfInsertionOrder) {
  // The same flow set registered in different orders must allocate
  // bit-identically: tick() walks the sorted flow-id index, so neither a
  // hash map's iteration order (the bug the sorted index replaced) nor the
  // slot layout of the dense table may leak into the figures. Priorities
  // and reservations are dyadic so the registration-time link sums are
  // exact in any order; everything after the first tick is recomputed from
  // link state alone.
  struct Spec {
    std::int64_t id;
    bool to_b;  // a->b (two links) or a->m (one link)
    double pri;
    double res;
  };
  const std::vector<Spec> specs = {
      {1, true, 1.0, 0.0},  {2, false, 2.0, 0.0}, {3, true, 0.5, 8e6},
      {4, true, 4.0, 0.0},  {5, false, 1.0, 4e6}, {6, true, 2.0, 0.0},
      {7, false, 0.5, 0.0}, {8, true, 1.0, 2e6},
  };

  auto run = [&](const std::vector<std::size_t>& order) {
    auto alloc = make();
    // Desynchronize slot numbering from id order: the recycled slot goes
    // to whichever flow happens to register first.
    alloc.register_flow(net::FlowId{99}, a_, b_);
    alloc.unregister_flow(net::FlowId{99});
    for (const std::size_t i : order) {
      const Spec& s = specs[i];
      alloc.register_flow(net::FlowId{s.id}, a_, s.to_b ? b_ : m_, s.pri,
                          sim::BitRate{s.res});
    }
    for (int t = 0; t < 40; ++t) alloc.tick();
    std::vector<double> out;
    for (const Spec& s : specs) {
      out.push_back(alloc.flow_rate(net::FlowId{s.id}).bps());
    }
    out.push_back(alloc.link_rate(am_).bps());
    out.push_back(alloc.link_rate(mb_).bps());
    out.push_back(alloc.link_rate_sum(am_).bps());
    out.push_back(alloc.link_rate_sum(mb_).bps());
    return out;
  };

  const auto sorted = run({0, 1, 2, 3, 4, 5, 6, 7});
  const auto shuffled = run({5, 2, 7, 0, 3, 6, 1, 4});
  ASSERT_EQ(sorted.size(), shuffled.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    // Bit-exact, not EXPECT_DOUBLE_EQ: a one-ulp divergence here is an
    // iteration-order leak that would already desynchronize a long run.
    EXPECT_EQ(std::memcmp(&sorted[i], &shuffled[i], sizeof(double)), 0)
        << "value " << i << ": " << sorted[i] << " vs " << shuffled[i];
  }
}

TEST_F(RateAllocatorTest, SlotRecyclingSurvivesChurn) {
  // Heavy register/unregister churn through the free list must keep the
  // registry consistent (find_row on the sorted index) and keep rates
  // finite and bounded.
  auto alloc = make();
  std::int64_t next_id = 1;
  for (int round = 0; round < 50; ++round) {
    for (int j = 0; j < 4; ++j)
      alloc.register_flow(net::FlowId{next_id++}, a_, b_);
    // Drop the two oldest still-active flows.
    alloc.unregister_flow(net::FlowId{next_id - 4});
    alloc.unregister_flow(net::FlowId{next_id - 3});
    alloc.tick();
  }
  EXPECT_EQ(alloc.active_flows(), 100u);
  EXPECT_FALSE(alloc.has_flow(net::FlowId{197}));
  EXPECT_TRUE(alloc.has_flow(net::FlowId{199}));
  EXPECT_GT(alloc.flow_rate(net::FlowId{200}).bps(), 0.0);
}

// --- metric-kind sweep: both variants converge on the basics ---------------

class MetricKindSweep : public ::testing::TestWithParam<RateMetricKind> {};

TEST_P(MetricKindSweep, SingleFlowGetsFullRateOnIdleNetwork) {
  sim::Simulator sim;
  net::Network net(sim);
  const auto a = net.add_node(net::NodeRole::kClient);
  const auto b = net.add_node(net::NodeRole::kServer);
  net.add_duplex(a, b, sim::BitRate{100e6}, 0.001, 1 << 20);
  net.build_routes();
  ScdaParams p;
  p.alpha = 1.0;
  p.metric = GetParam();
  RateAllocator alloc(net, p);
  alloc.register_flow(scda::net::FlowId{1}, a, b);
  for (int i = 0; i < 20; ++i) alloc.tick();
  // With no measured traffic the simplified metric also reports gamma.
  EXPECT_NEAR(alloc.flow_rate(scda::net::FlowId{1}).bps(), 100e6, 1e6);
}

INSTANTIATE_TEST_SUITE_P(Kinds, MetricKindSweep,
                         ::testing::Values(RateMetricKind::kExact,
                                           RateMetricKind::kSimplified));

}  // namespace
}  // namespace scda::core
