#include "core/sla.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace scda::core {
namespace {

class SlaTest : public ::testing::Test {
 protected:
  SlaTest() : net_(sim_) {
    a_ = net_.add_node(net::NodeRole::kOther);
    b_ = net_.add_node(net::NodeRole::kOther);
    auto [ab, ba] = net_.add_duplex(a_, b_, sim::BitRate{100e6}, 0.001, 1 << 20);
    link_ = ab;
    (void)ba;
    net_.build_routes();
  }

  sim::Simulator sim_;
  net::Network net_;
  net::NodeId a_{}, b_{};
  net::LinkId link_{};
};

TEST_F(SlaTest, EventsAreRecorded) {
  SlaManager sla(net_);
  sla.on_violation(link_, sim::BitRate{120e6}, sim::BitRate{95e6}, scda::sim::secs(1.5));
  ASSERT_EQ(sla.events().size(), 1u);
  EXPECT_EQ(sla.events()[0].link, link_);
  EXPECT_DOUBLE_EQ(sla.events()[0].demand.bps(), 120e6);
  EXPECT_DOUBLE_EQ(sla.events()[0].capacity.bps(), 95e6);
  EXPECT_DOUBLE_EQ(sla.events()[0].time.seconds(), 1.5);
}

TEST_F(SlaTest, RecentlyViolatedWithinCooldown) {
  SlaManager sla(net_);
  sla.set_cooldown(1.0);
  sla.on_violation(link_, sim::BitRate{120e6}, sim::BitRate{95e6}, scda::sim::secs(5.0));
  EXPECT_TRUE(sla.recently_violated(link_, scda::sim::secs(5.5)));
  EXPECT_FALSE(sla.recently_violated(link_, scda::sim::secs(6.5)));
}

TEST_F(SlaTest, OtherLinksUnaffected) {
  SlaManager sla(net_);
  sla.on_violation(link_, sim::BitRate{120e6}, sim::BitRate{95e6}, scda::sim::secs(5.0));
  EXPECT_FALSE(
      sla.recently_violated(net::LinkId{link_.value() + 1}, sim::secs(5.1)));
}

TEST_F(SlaTest, CapacityBoostAfterThreshold) {
  SlaManager sla(net_);
  sla.enable_capacity_boost(/*threshold=*/3, /*boost=*/2.0);
  const double c0 = net_.link(link_).capacity_bps();
  sla.on_violation(link_, sim::BitRate{120e6}, sim::BitRate{95e6}, scda::sim::secs(1.0));
  sla.on_violation(link_, sim::BitRate{120e6}, sim::BitRate{95e6}, scda::sim::secs(1.1));
  EXPECT_DOUBLE_EQ(net_.link(link_).capacity_bps(), c0);
  sla.on_violation(link_, sim::BitRate{120e6}, sim::BitRate{95e6}, scda::sim::secs(1.2));
  EXPECT_DOUBLE_EQ(net_.link(link_).capacity_bps(), 2.0 * c0);
  EXPECT_EQ(sla.boosts_applied(), 1u);
}

TEST_F(SlaTest, BoostAppliedAtMostOncePerLink) {
  SlaManager sla(net_);
  sla.enable_capacity_boost(1, 2.0);
  sla.on_violation(link_, sim::BitRate{120e6}, sim::BitRate{95e6}, scda::sim::secs(1.0));
  sla.on_violation(link_, sim::BitRate{300e6}, sim::BitRate{95e6}, scda::sim::secs(2.0));
  EXPECT_DOUBLE_EQ(net_.link(link_).capacity_bps(), 200e6);
  EXPECT_EQ(sla.boosts_applied(), 1u);
}

TEST_F(SlaTest, BoostDisabledByDefault) {
  SlaManager sla(net_);
  const double c0 = net_.link(link_).capacity_bps();
  for (int i = 0; i < 10; ++i) {
    sla.on_violation(link_, sim::BitRate{120e6}, sim::BitRate{95e6}, scda::sim::secs(i));
  }
  EXPECT_DOUBLE_EQ(net_.link(link_).capacity_bps(), c0);
  EXPECT_EQ(sla.boosts_applied(), 0u);
}

}  // namespace
}  // namespace scda::core
