// Unit tests for the public water-filling reference allocator, plus
// allocator-vs-reference comparisons for reservation scenarios.
#include "core/water_filling.h"

#include <gtest/gtest.h>

#include "core/rate_allocator.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace scda::core {
namespace {

std::vector<net::LinkId> links(std::initializer_list<int> ids) {
  std::vector<net::LinkId> v;
  for (const int i : ids) v.emplace_back(i);
  return v;
}

std::map<net::LinkId, sim::BitRate> caps_of(
    std::initializer_list<std::pair<int, double>> caps) {
  std::map<net::LinkId, sim::BitRate> m;
  for (const auto& [l, c] : caps) m.emplace(net::LinkId{l}, sim::BitRate{c});
  return m;
}


TEST(WaterFill, SingleLinkEqualSplit) {
  std::vector<ReferenceFlow> flows(4);
  for (auto& f : flows) f.path = links({0});
  water_fill(flows, caps_of({{0, 100.0}}));
  for (const auto& f : flows) EXPECT_DOUBLE_EQ(f.rate.bps(), 25.0);
}

TEST(WaterFill, WeightedSplit) {
  std::vector<ReferenceFlow> flows(2);
  flows[0].path = links({0});
  flows[0].weight = 3.0;
  flows[1].path = links({0});
  water_fill(flows, caps_of({{0, 100.0}}));
  EXPECT_DOUBLE_EQ(flows[0].rate.bps(), 75.0);
  EXPECT_DOUBLE_EQ(flows[1].rate.bps(), 25.0);
}

TEST(WaterFill, ParkingLot) {
  // Long flow over links 0 and 1; one short flow on each.
  std::vector<ReferenceFlow> flows(3);
  flows[0].path = links({0, 1});
  flows[1].path = links({0});
  flows[2].path = links({1});
  water_fill(flows, caps_of({{0, 100.0}, {1, 60.0}}));
  // Link 1 is tighter: level 30 freezes flows 0 and 2; flow 1 then gets
  // the rest of link 0.
  EXPECT_DOUBLE_EQ(flows[0].rate.bps(), 30.0);
  EXPECT_DOUBLE_EQ(flows[2].rate.bps(), 30.0);
  EXPECT_DOUBLE_EQ(flows[1].rate.bps(), 70.0);
}

TEST(WaterFill, ReservationGrantedOffTheTop) {
  std::vector<ReferenceFlow> flows(2);
  flows[0].path = links({0});
  flows[0].reserved = sim::BitRate{60.0};
  flows[1].path = links({0});
  water_fill(flows, caps_of({{0, 100.0}}));
  // 40 shareable, split equally: 20 each; reserved flow adds its 60.
  EXPECT_DOUBLE_EQ(flows[0].rate.bps(), 80.0);
  EXPECT_DOUBLE_EQ(flows[1].rate.bps(), 20.0);
}

TEST(WaterFill, OversubscribedReservationsFloorShares) {
  std::vector<ReferenceFlow> flows(2);
  flows[0].path = links({0});
  flows[0].reserved = sim::BitRate{80.0};
  flows[1].path = links({0});
  flows[1].reserved = sim::BitRate{50.0};
  water_fill(flows, caps_of({{0, 100.0}}));
  // Residual is negative: the shared level is 0; each keeps only M_j.
  EXPECT_DOUBLE_EQ(flows[0].rate.bps(), 80.0);
  EXPECT_DOUBLE_EQ(flows[1].rate.bps(), 50.0);
}

TEST(WaterFill, PureVariantMatchesInPlaceAndLeavesInputAlone) {
  std::vector<ReferenceFlow> flows(3);
  flows[0].path = links({0, 1});
  flows[1].path = links({0});
  flows[2].path = links({1});
  const auto rates =
      water_fill_rates(flows, caps_of({{0, 100.0}, {1, 60.0}}));
  for (const auto& f : flows) EXPECT_DOUBLE_EQ(f.rate.bps(), -1.0);
  water_fill(flows, caps_of({{0, 100.0}, {1, 60.0}}));
  ASSERT_EQ(rates.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i)
    EXPECT_DOUBLE_EQ(rates[i].bps(), flows[i].rate.bps());
}

TEST(WaterFill, MissingCapacityThrows) {
  std::vector<ReferenceFlow> flows(1);
  flows[0].path = links({7});
  std::map<net::LinkId, sim::BitRate> caps{{net::LinkId{0},
                                            sim::BitRate{10.0}}};
  EXPECT_THROW(water_fill(flows, caps), std::invalid_argument);
}

TEST(WaterFill, EmptyPathUnconstrained) {
  std::vector<ReferenceFlow> flows(1);
  flows[0].reserved = sim::BitRate{5.0};
  water_fill(flows, {});
  EXPECT_DOUBLE_EQ(flows[0].rate.bps(), 5.0);
}

// --- allocator vs reference with reservations ------------------------------

TEST(WaterFillVsAllocator, ReservationScenarioMatches) {
  sim::Simulator sim(1);
  net::Network net(sim);
  const auto a = net.add_node(net::NodeRole::kClient);
  const auto m = net.add_node(net::NodeRole::kOther);
  const auto b = net.add_node(net::NodeRole::kServer);
  net.add_duplex(a, m, sim::BitRate{100e6}, 0.001, 1 << 20);
  net.add_duplex(m, b, sim::BitRate{60e6}, 0.001, 1 << 20);
  net.build_routes();

  ScdaParams params;
  params.alpha = 1.0;
  params.min_rate = sim::BitRate{1.0};
  RateAllocator alloc(net, params);
  alloc.register_flow(scda::net::FlowId{0}, a, b, 1.0,
                      /*reserved=*/sim::BitRate{30e6});
  alloc.register_flow(scda::net::FlowId{1}, a, b, 2.0);
  alloc.register_flow(scda::net::FlowId{2}, a, m, 1.0);
  for (int i = 0; i < 400; ++i) alloc.tick();

  std::vector<ReferenceFlow> ref(3);
  ref[0].path = net.path(a, b);
  ref[0].reserved = sim::BitRate{30e6};
  ref[1].path = net.path(a, b);
  ref[1].weight = 2.0;
  ref[2].path = net.path(a, m);
  std::map<net::LinkId, sim::BitRate> caps;
  for (const auto& f : ref)
    for (const auto l : f.path) caps[l] = net.link(l).capacity();
  water_fill(ref, caps);

  for (net::FlowId f{0}; f < net::FlowId{3}; ++f) {
    // same-unit Quantity ratio: dimensionless closeness check
    EXPECT_NEAR(alloc.flow_rate(f) / ref[f.index()].rate,
                1.0, 0.03)
        << "flow " << f.value();
  }
}

}  // namespace
}  // namespace scda::core
