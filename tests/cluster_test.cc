#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <thread>
#include <string>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/master.h"
#include "src/cluster/region_map.h"
#include "src/cluster/region_server.h"
#include "src/common/random.h"

namespace tebis {
namespace {

constexpr uint64_t kSegmentSize = 1 << 16;

// --- Coordinator ----------------------------------------------------------

TEST(CoordinatorTest, CreateGetSetDelete) {
  Coordinator zk;
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/cfg", "v1", {}).ok());
  auto v = zk.Get("/cfg");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v1");
  ASSERT_TRUE(zk.Set("/cfg", "v2").ok());
  EXPECT_EQ(*zk.Get("/cfg"), "v2");
  ASSERT_TRUE(zk.Delete(Coordinator::kNoSession, "/cfg").ok());
  EXPECT_TRUE(zk.Get("/cfg").status().IsNotFound());
}

TEST(CoordinatorTest, ParentMustExist) {
  Coordinator zk;
  EXPECT_TRUE(zk.Create(Coordinator::kNoSession, "/a/b", "", {}).IsNotFound());
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/a", "", {}).ok());
  EXPECT_TRUE(zk.Create(Coordinator::kNoSession, "/a/b", "", {}).ok());
}

TEST(CoordinatorTest, DuplicateCreateFails) {
  Coordinator zk;
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/x", "", {}).ok());
  EXPECT_EQ(zk.Create(Coordinator::kNoSession, "/x", "", {}).code(),
            StatusCode::kAlreadyExists);
}

TEST(CoordinatorTest, EphemeralNodesDieWithSession) {
  Coordinator zk;
  auto session = zk.CreateSession();
  ASSERT_TRUE(zk.Create(session, "/worker", "", {.ephemeral = true}).ok());
  EXPECT_TRUE(zk.Exists("/worker"));
  zk.ExpireSession(session);
  EXPECT_FALSE(zk.Exists("/worker"));
  EXPECT_FALSE(zk.SessionAlive(session));
}

TEST(CoordinatorTest, EphemeralRequiresLiveSession) {
  Coordinator zk;
  EXPECT_FALSE(zk.Create(Coordinator::kNoSession, "/e", "", {.ephemeral = true}).ok());
  auto session = zk.CreateSession();
  zk.ExpireSession(session);
  EXPECT_FALSE(zk.Create(session, "/e", "", {.ephemeral = true}).ok());
}

TEST(CoordinatorTest, SequentialNodesGetIncreasingSuffixes) {
  Coordinator zk;
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/election", "", {}).ok());
  std::string a, b;
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/election/m-", "",
                        {.ephemeral = false, .sequential = true}, &a)
                  .ok());
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/election/m-", "",
                        {.ephemeral = false, .sequential = true}, &b)
                  .ok());
  EXPECT_LT(a, b);
}

TEST(CoordinatorTest, WatchesFireOnce) {
  Coordinator zk;
  int fired = 0;
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/watched", "v", {}).ok());
  ASSERT_TRUE(zk.Get("/watched", [&](const WatchEvent& e) {
                  fired++;
                  EXPECT_EQ(e.type, WatchEventType::kDataChanged);
                }).ok());
  ASSERT_TRUE(zk.Set("/watched", "v2").ok());
  ASSERT_TRUE(zk.Set("/watched", "v3").ok());  // watch is one-shot
  EXPECT_EQ(fired, 1);
}

TEST(CoordinatorTest, ChildWatchFiresOnCreateAndDelete) {
  Coordinator zk;
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/servers", "", {}).ok());
  int fired = 0;
  ASSERT_TRUE(zk.List("/servers", [&](const WatchEvent&) { fired++; }).ok());
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/servers/s1", "", {}).ok());
  EXPECT_EQ(fired, 1);
  ASSERT_TRUE(zk.List("/servers", [&](const WatchEvent&) { fired++; }).ok());
  ASSERT_TRUE(zk.Delete(Coordinator::kNoSession, "/servers/s1").ok());
  EXPECT_EQ(fired, 2);
}

TEST(CoordinatorTest, ListReturnsDirectChildrenOnly) {
  Coordinator zk;
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/a", "", {}).ok());
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/a/x", "", {}).ok());
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/a/y", "", {}).ok());
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/a/x/deep", "", {}).ok());
  auto children = zk.List("/a");
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(*children, (std::vector<std::string>{"x", "y"}));
}

TEST(CoordinatorTest, ConcurrentSessionsAndWatches) {
  Coordinator zk;
  ASSERT_TRUE(zk.Create(Coordinator::kNoSession, "/race", "", {}).ok());
  constexpr int kThreads = 6;
  constexpr int kPerThread = 200;
  std::atomic<int> watch_fires{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = zk.CreateSession();
      for (int i = 0; i < kPerThread; ++i) {
        const std::string path = "/race/t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(zk.Create(session, path, "v", {.ephemeral = true}).ok());
        (void)zk.Get(path, [&](const WatchEvent&) { watch_fires++; });
        if (i % 2 == 0) {
          ASSERT_TRUE(zk.Delete(session, path).ok());
        }
      }
      zk.ExpireSession(session);  // deletes the ephemeral survivors
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Every node is gone (half deleted explicitly, half by session expiry) and
  // every one-shot watch fired exactly once.
  auto children = zk.List("/race");
  ASSERT_TRUE(children.ok());
  EXPECT_TRUE(children->empty());
  EXPECT_EQ(watch_fires.load(), kThreads * kPerThread);
}

// --- RegionMap -----------------------------------------------------------------

TEST(RegionMapTest, UniformSplitCoversKeySpace) {
  auto map = RegionMap::CreateUniform(8, "user", 10, 1000000, {"s0", "s1", "s2"}, 2);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->regions().size(), 8u);
  // Every generated key lands in exactly one region.
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "user%010llu",
             static_cast<unsigned long long>(rng.Uniform(1000000)));
    const RegionInfo* region = map->FindRegion(key);
    ASSERT_NE(region, nullptr) << key;
    EXPECT_TRUE(region->Contains(key));
  }
  // Keys outside the prefix still land somewhere (first/last regions are
  // open-ended).
  EXPECT_NE(map->FindRegion(""), nullptr);
  EXPECT_NE(map->FindRegion("zzzz"), nullptr);
}

TEST(RegionMapTest, RoundRobinPlacementBalances) {
  auto map = RegionMap::CreateUniform(9, "k", 6, 900000, {"s0", "s1", "s2"}, 3);
  ASSERT_TRUE(map.ok());
  for (const auto& server : {"s0", "s1", "s2"}) {
    EXPECT_EQ(map->PrimariesOf(server).size(), 3u) << server;
    EXPECT_EQ(map->BackupsOf(server).size(), 6u) << server;
  }
  // Primary never duplicated in its own backup list.
  for (const auto& region : map->regions()) {
    for (const auto& backup : region.backups) {
      EXPECT_NE(backup, region.primary);
    }
  }
}

TEST(RegionMapTest, SerializeRoundTrip) {
  auto map = RegionMap::CreateUniform(4, "user", 8, 10000, {"a", "b"}, 2);
  ASSERT_TRUE(map.ok());
  std::string data = map->Serialize();
  auto decoded = RegionMap::Deserialize(data);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version(), map->version());
  ASSERT_EQ(decoded->regions().size(), 4u);
  EXPECT_EQ(decoded->regions()[2].primary, map->regions()[2].primary);
  EXPECT_EQ(decoded->regions()[2].start_key, map->regions()[2].start_key);
}

TEST(RegionMapTest, RejectsBadParameters) {
  EXPECT_FALSE(RegionMap::CreateUniform(0, "k", 4, 100, {"a"}, 1).ok());
  EXPECT_FALSE(RegionMap::CreateUniform(4, "k", 4, 100, {}, 1).ok());
  EXPECT_FALSE(RegionMap::CreateUniform(4, "k", 4, 100, {"a"}, 2).ok());  // rf > servers
}

// --- full cluster integration -----------------------------------------------------

class ClusterFixture {
 public:
  explicit ClusterFixture(ReplicationMode mode, int num_servers = 3, uint32_t num_regions = 4,
                          int replication_factor = 2) {
    RegionServerOptions options;
    options.device_options.segment_size = kSegmentSize;
    options.device_options.max_segments = 1 << 16;
    options.kv_options.l0_max_entries = 256;
    options.kv_options.max_levels = 3;
    options.replication_mode = mode;
    std::vector<std::string> names;
    for (int i = 0; i < num_servers; ++i) {
      names.push_back("server" + std::to_string(i));
      servers.push_back(
          std::make_unique<RegionServer>(&fabric, &zk, names.back(), options));
      EXPECT_TRUE(servers.back()->Start().ok());
      directory[names.back()] = servers.back().get();
    }
    master = std::make_unique<Master>(&zk, "master0", directory);
    EXPECT_TRUE(master->Campaign().ok());
    EXPECT_TRUE(master->IsLeader());
    auto map = RegionMap::CreateUniform(num_regions, "user", 10, 1000000000ull, names,
                                        replication_factor);
    EXPECT_TRUE(map.ok());
    EXPECT_TRUE(master->Bootstrap(*map).ok());
  }

  std::unique_ptr<TebisClient> MakeClient(const std::string& name) {
    std::vector<std::string> seeds;
    for (auto& [server_name, server] : directory) {
      seeds.push_back(server_name);
    }
    auto client = std::make_unique<TebisClient>(
        &fabric, name,
        [this](const std::string& server) -> ServerEndpoint* {
          auto it = directory.find(server);
          if (it == directory.end() || it->second->crashed()) {
            return nullptr;
          }
          return it->second->client_endpoint();
        },
        seeds);
    EXPECT_TRUE(client->Connect().ok());
    return client;
  }

  static std::string Key(uint64_t i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "user%010llu", static_cast<unsigned long long>(i * 7919 % 1000000000ull));
    return buf;
  }

  Fabric fabric;
  Coordinator zk;
  std::vector<std::unique_ptr<RegionServer>> servers;
  std::map<std::string, RegionServer*> directory;
  std::unique_ptr<Master> master;
};

TEST(ClusterTest, PutGetAcrossRegions) {
  ClusterFixture cluster(ReplicationMode::kSendIndex);
  auto client = cluster.MakeClient("client0");
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(client->Put(ClusterFixture::Key(i), "value" + std::to_string(i)).ok()) << i;
  }
  for (int i = 0; i < 500; ++i) {
    auto v = client->Get(ClusterFixture::Key(i));
    ASSERT_TRUE(v.ok()) << i << " " << v.status().ToString();
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
  EXPECT_TRUE(client->Get("user9999999999").status().IsNotFound());
}

TEST(ClusterTest, DeleteViaClient) {
  ClusterFixture cluster(ReplicationMode::kSendIndex);
  auto client = cluster.MakeClient("client0");
  ASSERT_TRUE(client->Put(ClusterFixture::Key(1), "v").ok());
  ASSERT_TRUE(client->Delete(ClusterFixture::Key(1)).ok());
  EXPECT_TRUE(client->Get(ClusterFixture::Key(1)).status().IsNotFound());
}

TEST(ClusterTest, ScanWithinRegion) {
  ClusterFixture cluster(ReplicationMode::kSendIndex, 3, /*num_regions=*/1);
  auto client = cluster.MakeClient("client0");
  for (int i = 0; i < 100; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "user%010d", i);
    ASSERT_TRUE(client->Put(key, "sv" + std::to_string(i)).ok());
  }
  auto pairs = client->Scan("user0000000010", 5);
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  ASSERT_EQ(pairs->size(), 5u);
  EXPECT_EQ((*pairs)[0].key, "user0000000010");
  EXPECT_EQ((*pairs)[0].value, "sv10");
  EXPECT_EQ((*pairs)[4].key, "user0000000014");
}

TEST(ClusterTest, ScanCrossesRegionBoundaries) {
  // 4 regions over [0, 1e9); a scan starting near the end of region 0 must
  // continue seamlessly into region 1 (a different primary server).
  ClusterFixture cluster(ReplicationMode::kSendIndex, 3, /*num_regions=*/4);
  auto client = cluster.MakeClient("client0");
  // Keys straddling the first boundary at 250000000.
  std::vector<std::string> keys;
  for (uint64_t base : {249999998ull, 249999999ull, 250000000ull, 250000001ull, 250000002ull}) {
    char key[32];
    snprintf(key, sizeof(key), "user%010llu", (unsigned long long)base);
    keys.push_back(key);
    ASSERT_TRUE(client->Put(key, "x-" + std::to_string(base)).ok());
  }
  auto pairs = client->Scan(keys[0], 5);
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  ASSERT_EQ(pairs->size(), 5u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ((*pairs)[i].key, keys[i]);
  }
}

TEST(ClusterTest, LargeValueTriggersTruncatedRetry) {
  ClusterFixture cluster(ReplicationMode::kSendIndex);
  auto client = cluster.MakeClient("client0");
  std::string big(8000, 'B');
  ASSERT_TRUE(client->Put(ClusterFixture::Key(5), big).ok());
  auto v = client->Get(ClusterFixture::Key(5));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, big);
  EXPECT_GE(client->stats().truncated_retries, 1u);
}

TEST(ClusterTest, PipelinedOpsComplete) {
  ClusterFixture cluster(ReplicationMode::kSendIndex);
  auto client = cluster.MakeClient("client0");
  std::vector<TebisClient::OpHandle> handles;
  for (int i = 0; i < 200; ++i) {
    auto h = client->PutAsync(ClusterFixture::Key(i), "pipelined");
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  ASSERT_TRUE(client->WaitAll().ok());
  for (int i = 0; i < 200; i += 17) {
    auto v = client->Get(ClusterFixture::Key(i));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "pipelined");
  }
}

TEST(ClusterTest, BuildIndexModeWorksEndToEnd) {
  ClusterFixture cluster(ReplicationMode::kBuildIndex);
  auto client = cluster.MakeClient("client0");
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(client->Put(ClusterFixture::Key(i % 300), "b" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 300; i += 13) {
    ASSERT_TRUE(client->Get(ClusterFixture::Key(i)).ok());
  }
}

TEST(ClusterTest, WorkloadWithCompactionsThroughWire) {
  ClusterFixture cluster(ReplicationMode::kSendIndex);
  auto client = cluster.MakeClient("client0");
  std::map<std::string, std::string> model;
  Random rng(5);
  for (int i = 0; i < 4000; ++i) {
    std::string key = ClusterFixture::Key(rng.Uniform(500));
    std::string value = rng.Bytes(1 + rng.Uniform(200));
    ASSERT_TRUE(client->Put(key, value).ok()) << i;
    model[key] = value;
  }
  uint64_t compactions = 0;
  for (auto& server : cluster.servers) {
    compactions += server->telemetry()->Snapshot().Sum("kv.compactions", "role", "primary");
  }
  EXPECT_GT(compactions, 0u);
  for (const auto& [key, value] : model) {
    auto v = client->Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value);
  }
}

// --- §3.5 failure handling ------------------------------------------------------

TEST(FailoverTest, PrimaryFailurePromotesBackupAndClientRecovers) {
  ClusterFixture cluster(ReplicationMode::kSendIndex, 3, 4, /*replication_factor=*/2);
  auto client = cluster.MakeClient("client0");
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    std::string key = ClusterFixture::Key(i % 600);
    std::string value = "pre-crash-" + std::to_string(i);
    ASSERT_TRUE(client->Put(key, value).ok());
    model[key] = value;
  }
  // Crash server0: the master promotes backups for its primary regions and
  // finds replacements for its backup slots.
  cluster.servers[0]->Crash();
  auto map = cluster.master->current_map();
  ASSERT_NE(map, nullptr);
  for (const auto& region : map->regions()) {
    EXPECT_NE(region.primary, "server0");
    for (const auto& backup : region.backups) {
      EXPECT_NE(backup, "server0");
    }
  }
  // Every acknowledged write must survive (the client refreshes its stale
  // map on the wrong-region reply).
  for (const auto& [key, value] : model) {
    auto v = client->Get(key);
    ASSERT_TRUE(v.ok()) << key << " " << v.status().ToString();
    EXPECT_EQ(*v, value) << key;
  }
  EXPECT_GT(client->stats().wrong_region_retries + client->stats().map_refreshes, 0u);
  // And the cluster accepts new writes.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(client->Put(ClusterFixture::Key(i % 600), "post-crash").ok());
  }
}

TEST(FailoverTest, BackupFailureTransfersDataToReplacement) {
  ClusterFixture cluster(ReplicationMode::kSendIndex, 3, 2, /*replication_factor=*/2);
  auto client = cluster.MakeClient("client0");
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(client->Put(ClusterFixture::Key(i % 400), "transfer-" + std::to_string(i)).ok());
  }
  // Find a server that is backup-only victim candidate: crash server1.
  cluster.servers[1]->Crash();
  auto map = cluster.master->current_map();
  ASSERT_NE(map, nullptr);
  for (const auto& region : map->regions()) {
    EXPECT_NE(region.primary, "server1");
    for (const auto& backup : region.backups) {
      EXPECT_NE(backup, "server1");
    }
    EXPECT_EQ(region.backups.size(), 1u);  // replication factor restored
  }
  // Now crash the (possibly new) primaries' server too: data must still be
  // fully recoverable from the freshly synced replicas.
  cluster.servers[2]->Crash();
  for (int i = 0; i < 400; i += 7) {
    auto v = client->Get(ClusterFixture::Key(i));
    ASSERT_TRUE(v.ok()) << i << " " << v.status().ToString();
  }
}

TEST(FailoverTest, ThreeWayReplicationSurvivesPrimaryLoss) {
  ClusterFixture cluster(ReplicationMode::kSendIndex, 4, 4, /*replication_factor=*/3);
  auto client = cluster.MakeClient("client0");
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2500; ++i) {
    std::string key = ClusterFixture::Key(i % 500);
    model[key] = "three-way-" + std::to_string(i);
    ASSERT_TRUE(client->Put(key, model[key]).ok());
  }
  cluster.servers[0]->Crash();
  for (const auto& [key, value] : model) {
    auto v = client->Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value);
  }
}

TEST(FailoverTest, MasterFailureElectsStandbyWhichHandlesFailures) {
  ClusterFixture cluster(ReplicationMode::kSendIndex, 3, 2, 2);
  // A standby master campaigns and loses.
  Master standby(&cluster.zk, "master1", cluster.directory);
  ASSERT_TRUE(standby.Campaign().ok());
  EXPECT_FALSE(standby.IsLeader());

  auto client = cluster.MakeClient("client0");
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(client->Put(ClusterFixture::Key(i % 200), "m-" + std::to_string(i)).ok());
  }
  // Kill the leader; the standby takes over (§3.5 "master failure").
  cluster.master->Fail();
  EXPECT_TRUE(standby.IsLeader());
  // A region-server failure is now handled by the new leader.
  cluster.servers[0]->Crash();
  auto map = standby.current_map();
  ASSERT_NE(map, nullptr);
  for (const auto& region : map->regions()) {
    EXPECT_NE(region.primary, "server0");
  }
  for (int i = 0; i < 200; i += 11) {
    ASSERT_TRUE(client->Get(ClusterFixture::Key(i)).ok()) << i;
  }
}

TEST(FailoverTest, BuildIndexPrimaryFailover) {
  ClusterFixture cluster(ReplicationMode::kBuildIndex, 3, 2, 2);
  auto client = cluster.MakeClient("client0");
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1500; ++i) {
    std::string key = ClusterFixture::Key(i % 300);
    model[key] = "bi-" + std::to_string(i);
    ASSERT_TRUE(client->Put(key, model[key]).ok());
  }
  cluster.servers[0]->Crash();
  for (const auto& [key, value] : model) {
    auto v = client->Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value);
  }
}

// Two changes of primary in a row (§3.5). The first is a crash or a graceful
// MovePrimary; either way the remaining backups re-key their log maps to the
// promoted node's segments, whose ids repeat the deposed primary's. The
// second primary then overwrites every key once, and every node but the one
// that never served as primary is crashed, so that backup is promoted last
// and must serve every acknowledged write: a flush of the second primary it
// had dropped as a duplicate of a first-primary segment reads back as an
// older value.
struct TwoFailoverCase {
  ReplicationMode mode;
  bool move_first;  // MovePrimary instead of a crash for the first change
};

std::string CaseName(const TwoFailoverCase& c) {
  return std::string(c.mode == ReplicationMode::kSendIndex ? "SendIndex" : "BuildIndex") +
         (c.move_first ? "Move" : "Crash");
}

void PrintTo(const TwoFailoverCase& c, std::ostream* os) { *os << CaseName(c); }

class TwoFailoverTest : public testing::TestWithParam<TwoFailoverCase> {};

TEST_P(TwoFailoverTest, SurvivingBackupKeepsAckedWritesAcrossTwoFailovers) {
  ClusterFixture cluster(GetParam().mode, 3, 1, /*replication_factor=*/3);
  auto client = cluster.MakeClient("client0");
  std::map<std::string, std::string> model;
  auto write = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      std::string key = ClusterFixture::Key(i % 600);
      std::string value = "v" + std::to_string(i) + std::string(100, 'x');
      ASSERT_TRUE(client->Put(key, value).ok()) << i;
      model[key] = value;
    }
  };
  const RegionInfo initial = *cluster.master->current_map()->FindById(0);
  ASSERT_EQ(initial.backups.size(), 2u);
  const std::string survivor = initial.backups[1];

  ASSERT_NO_FATAL_FAILURE(write(0, 1500));
  if (GetParam().move_first) {
    ASSERT_TRUE(cluster.master->MovePrimary(0, initial.backups[0]).ok());
  } else {
    cluster.directory.at(initial.primary)->Crash();
  }
  ASSERT_NE(cluster.master->current_map()->FindById(0)->primary, survivor);
  ASSERT_NO_FATAL_FAILURE(write(1500, 2100));
  // Crash the current primary, then whichever node is left besides the
  // survivor.
  cluster.directory.at(cluster.master->current_map()->FindById(0)->primary)->Crash();
  for (const auto& [name, server] : cluster.directory) {
    if (name != survivor && !server->crashed()) {
      server->Crash();
    }
  }
  ASSERT_EQ(cluster.master->current_map()->FindById(0)->primary, survivor);

  size_t stale = 0;
  for (const auto& [key, value] : model) {
    auto v = client->Get(key);
    stale += !v.ok() || *v != value ? 1 : 0;
  }
  EXPECT_EQ(stale, 0u) << "of " << model.size() << " keys";
}

INSTANTIATE_TEST_SUITE_P(
    Modes, TwoFailoverTest,
    testing::Values(TwoFailoverCase{ReplicationMode::kSendIndex, false},
                    TwoFailoverCase{ReplicationMode::kBuildIndex, false},
                    TwoFailoverCase{ReplicationMode::kSendIndex, true},
                    TwoFailoverCase{ReplicationMode::kBuildIndex, true}),
    [](const testing::TestParamInfo<TwoFailoverCase>& info) { return CaseName(info.param); });

}  // namespace
}  // namespace tebis
