#include "core/server_resources.h"

#include <gtest/gtest.h>

#include "core/block_server.h"

namespace scda::core {
namespace {

TEST(ServerResources, ROtherIsMinOfCpuAndDisk) {
  ServerResources r(sim::BitRate{10e9}, sim::BitRate{6e9});
  EXPECT_DOUBLE_EQ(r.r_other().bps(), 6e9);
  r.set_disk(sim::BitRate{20e9});
  EXPECT_DOUBLE_EQ(r.r_other().bps(), 10e9);
}

TEST(ServerResources, BackgroundLoadReducesRate) {
  ServerResources r(sim::BitRate{10e9}, sim::BitRate{10e9});
  r.set_cpu_background(0.5);
  EXPECT_DOUBLE_EQ(r.r_other().bps(), 5e9);
  r.set_disk_background(0.9);
  EXPECT_DOUBLE_EQ(r.r_other().bps(), 1e9);
}

TEST(ServerResources, BackgroundClamped) {
  ServerResources r(sim::BitRate{10e9}, sim::BitRate{10e9});
  r.set_cpu_background(2.0);
  EXPECT_DOUBLE_EQ(r.r_other().bps(), 0.0);
  r.set_cpu_background(-1.0);
  EXPECT_DOUBLE_EQ(r.r_other().bps(), 10e9);
}

TEST(ServerResources, StorageReserveAndRelease) {
  ServerResources r;
  r.set_capacity_bytes(1000);
  EXPECT_TRUE(r.reserve_bytes(600));
  EXPECT_EQ(r.used_bytes(), 600);
  EXPECT_EQ(r.free_bytes(), 400);
  EXPECT_FALSE(r.reserve_bytes(500));  // would exceed
  EXPECT_EQ(r.used_bytes(), 600);      // unchanged on failure
  r.release_bytes(600);
  EXPECT_EQ(r.used_bytes(), 0);
  r.release_bytes(100);  // over-release clamps at zero
  EXPECT_EQ(r.used_bytes(), 0);
}

TEST(BlockServer, StoreTracksBlocksAndSpace) {
  BlockServer bs(0, net::NodeId{100});
  bs.resources().set_capacity_bytes(10000);
  EXPECT_TRUE(bs.store(1, 4000));
  EXPECT_TRUE(bs.store(2, 4000));
  EXPECT_FALSE(bs.store(3, 4000));  // out of space
  EXPECT_TRUE(bs.has(1));
  EXPECT_FALSE(bs.has(3));
  EXPECT_EQ(bs.stored_bytes(1), 4000);
  EXPECT_EQ(bs.block_count(), 2u);
}

TEST(BlockServer, RemoveFreesSpace) {
  BlockServer bs(0, net::NodeId{100});
  bs.resources().set_capacity_bytes(10000);
  ASSERT_TRUE(bs.store(1, 8000));
  bs.remove(1);
  EXPECT_FALSE(bs.has(1));
  EXPECT_TRUE(bs.store(2, 8000));
}

TEST(BlockServer, GrowingExistingBlockAccumulates) {
  BlockServer bs(0, net::NodeId{100});
  ASSERT_TRUE(bs.store(1, 100));
  ASSERT_TRUE(bs.store(1, 200));
  EXPECT_EQ(bs.stored_bytes(1), 300);
}

TEST(BlockServer, FlowActivityTracking) {
  BlockServer bs(0, net::NodeId{100});
  EXPECT_EQ(bs.active_flows(), 0);
  bs.flow_started();
  bs.flow_started();
  bs.flow_finished();
  EXPECT_EQ(bs.active_flows(), 1);
  bs.flow_finished();
  bs.flow_finished();  // underflow guard
  EXPECT_EQ(bs.active_flows(), 0);
}

TEST(BlockServer, DormancyDelegatesToPowerModel) {
  BlockServer bs(0, net::NodeId{100});
  EXPECT_FALSE(bs.dormant());
  bs.set_dormant(true);
  EXPECT_TRUE(bs.dormant());
  EXPECT_TRUE(bs.power().dormant());
}

}  // namespace
}  // namespace scda::core
