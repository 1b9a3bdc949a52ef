// Region-server admin API edge cases: open/close/double-open, role checks,
// buffer exchange, and wrong-region replies for clients with stale maps.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/cluster/client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/master.h"
#include "src/cluster/region_server.h"

namespace tebis {
namespace {

RegionServerOptions SmallServerOptions() {
  RegionServerOptions options;
  options.device_options.segment_size = 1 << 16;
  options.device_options.max_segments = 1 << 14;
  options.kv_options.l0_max_entries = 128;
  return options;
}

TEST(AdminTest, OpenCloseLifecycle) {
  Fabric fabric;
  Coordinator zk;
  RegionServer server(&fabric, &zk, "s0", SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.OpenPrimaryRegion(1).ok());
  EXPECT_EQ(server.OpenPrimaryRegion(1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(server.OpenBackupRegion(1).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(server.IsPrimaryFor(1));
  EXPECT_FALSE(server.IsPrimaryFor(2));
  ASSERT_TRUE(server.CloseRegion(1).ok());
  EXPECT_TRUE(server.CloseRegion(1).IsNotFound());
  // Re-open after close works.
  EXPECT_TRUE(server.OpenBackupRegion(1).ok());
  EXPECT_FALSE(server.IsPrimaryFor(1));
  server.Stop();
}

TEST(AdminTest, ReplicationBufferOnlyForBackups) {
  Fabric fabric;
  Coordinator zk;
  RegionServer server(&fabric, &zk, "s0", SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.OpenPrimaryRegion(1).ok());
  ASSERT_TRUE(server.OpenBackupRegion(2).ok());
  EXPECT_TRUE(server.GetReplicationBuffer(1).status().IsNotFound());  // primary role
  auto buffer = server.GetReplicationBuffer(2);
  ASSERT_TRUE(buffer.ok());
  // One segment: the mirror of the primary's one log tail.
  EXPECT_EQ((*buffer)->size(), SmallServerOptions().device_options.segment_size);
  EXPECT_TRUE(server.GetReplicationBuffer(99).status().IsNotFound());
  server.Stop();
}

TEST(AdminTest, RoleChecksOnAttachPromoteDemote) {
  Fabric fabric;
  Coordinator zk;
  RegionServer a(&fabric, &zk, "a", SmallServerOptions());
  RegionServer b(&fabric, &zk, "b", SmallServerOptions());
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.OpenPrimaryRegion(1).ok());
  ASSERT_TRUE(b.OpenBackupRegion(1).ok());
  // Attach requires the local side to be primary.
  EXPECT_FALSE(b.AttachBackup(1, &a).ok());
  EXPECT_TRUE(a.AttachBackup(1, &b).ok());
  // Promote requires a backup role; demote requires a primary role.
  SegmentMap log_map;
  EXPECT_FALSE(a.PromoteRegion(1, &log_map).ok());
  EXPECT_FALSE(b.DemoteRegion(1, log_map).ok());
  // Demotion requires a sealed tail.
  ASSERT_TRUE(a.OpenPrimaryRegion(7).ok());
  a.Stop();
  b.Stop();
}

TEST(AdminTest, StaleClientGetsWrongRegionFlag) {
  Fabric fabric;
  Coordinator zk;
  std::map<std::string, RegionServer*> directory;
  RegionServer s0(&fabric, &zk, "s0", SmallServerOptions());
  RegionServer s1(&fabric, &zk, "s1", SmallServerOptions());
  ASSERT_TRUE(s0.Start().ok());
  ASSERT_TRUE(s1.Start().ok());
  directory["s0"] = &s0;
  directory["s1"] = &s1;
  Master master(&zk, "m", directory);
  ASSERT_TRUE(master.Campaign().ok());
  auto map = RegionMap::CreateUniform(1, "user", 10, 1000, {"s0", "s1"}, 2);
  ASSERT_TRUE(master.Bootstrap(*map).ok());

  TebisClient client(
      &fabric, "c",
      [&](const std::string& name) -> ServerEndpoint* {
        return directory.contains(name) ? directory[name]->client_endpoint() : nullptr;
      },
      {"s0", "s1"});
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Put("user0000000001", "before").ok());

  // Move the primary role; the client still holds the old map and must
  // recover via the wrong-region reply path.
  ASSERT_TRUE(master.MovePrimary(0, "s1").ok());
  auto v = client.Get("user0000000001");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "before");
  EXPECT_GE(client.stats().wrong_region_retries, 1u);
  s0.Stop();
  s1.Stop();
}

TEST(AdminTest, ServerRegistersEphemeralMembership) {
  Fabric fabric;
  Coordinator zk;
  {
    RegionServer server(&fabric, &zk, "mortal", SmallServerOptions());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_TRUE(zk.Exists("/servers/mortal"));
    server.Crash();
    EXPECT_FALSE(zk.Exists("/servers/mortal"));
  }
}

}  // namespace
}  // namespace tebis
