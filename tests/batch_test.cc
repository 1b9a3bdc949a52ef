// Write-path group commit (PR 9): engine WriteBatch semantics (per-op
// statuses, committed-prefix durability), coalesced replication doorbells,
// tail seeding of a late backup's one-segment replication buffer, client
// kKvBatch coalescing end to end, and the group-commit crash points added to
// the PR 1 matrix.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/master.h"
#include "src/cluster/region_map.h"
#include "src/cluster/region_server.h"
#include "src/lsm/kv_store.h"
#include "src/net/fabric.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"
#include "src/testing/fault_injector.h"
#include "tests/metric_reader.h"

namespace tebis {
namespace {

constexpr uint64_t kSegmentSize = 1 << 16;

std::unique_ptr<BlockDevice> MakeDevice(const std::string& name = "",
                                        uint64_t segment_size = kSegmentSize) {
  BlockDeviceOptions opts;
  opts.segment_size = segment_size;
  opts.max_segments = 1 << 16;
  opts.name = name;
  auto dev = BlockDevice::Create(opts);
  EXPECT_TRUE(dev.ok());
  return std::move(*dev);
}

KvStoreOptions SmallOptions() {
  KvStoreOptions opts;
  opts.l0_max_entries = 256;
  opts.growth_factor = 4;
  opts.max_levels = 3;
  return opts;
}

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", static_cast<unsigned long long>(i));
  return buf;
}

std::string ValueFor(uint64_t i) { return "gv-" + std::to_string(i) + std::string(40, 'v'); }

std::vector<KvStore::BatchOp> MakeOps(const std::vector<std::pair<std::string, std::string>>& kvs) {
  std::vector<KvStore::BatchOp> ops;
  ops.reserve(kvs.size());
  for (const auto& [key, value] : kvs) {
    ops.push_back({Slice(key), Slice(value), /*tombstone=*/false});
  }
  return ops;
}

// --- engine semantics: the batch is a transport artifact, not a transaction ---

TEST(EngineBatchTest, InvalidOpFailsAloneRestOfGroupCommits) {
  auto dev = MakeDevice();
  auto store = KvStore::Create(dev.get(), SmallOptions());
  ASSERT_TRUE(store.ok());
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 8; ++i) {
    kvs.emplace_back(Key(i), ValueFor(i));
  }
  kvs[3].first = "";                            // invalid: empty key
  kvs[5].first = std::string(400, 'k');        // invalid: key > kMaxKeySize
  // Invalid: the record cannot fit one log segment.
  kvs.emplace_back(Key(8), std::string(dev->segment_size(), 'x'));
  std::vector<KvStore::BatchOp> ops = MakeOps(kvs);
  std::vector<Status> statuses;
  ASSERT_TRUE((*store)->WriteBatch(ops, &statuses).ok());
  ASSERT_EQ(statuses.size(), ops.size());
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (i == 3 || i == 5 || i == 8) {
      EXPECT_EQ(statuses[i].code(), StatusCode::kInvalidArgument)
          << i << ": " << statuses[i].ToString();
    } else {
      EXPECT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
      auto got = (*store)->Get(kvs[i].first);
      ASSERT_TRUE(got.ok()) << i;
      EXPECT_EQ(*got, kvs[i].second);
    }
  }
  EXPECT_NE(statuses[8].ToString().find("record larger than a segment"), std::string::npos)
      << statuses[8].ToString();
  EXPECT_EQ(Metric(**store, "wp.batch_groups"), 1u);
  EXPECT_EQ(Metric(**store, "wp.batch_ops"), 6u);  // the three invalid ops never reached the log
}

TEST(EngineBatchTest, HardFailureMidGroupKeepsCommittedPrefix) {
  // Small segments force a tail seal inside the group; failing that device
  // write kills the op that triggered it and the suffix, while the applied
  // prefix stays committed and readable.
  auto dev = MakeDevice("dev0", /*segment_size=*/4096);
  FaultInjector injector;
  dev->set_fault_hook(&injector);
  auto store = KvStore::Create(dev.get(), SmallOptions());
  ASSERT_TRUE(store.ok());
  injector.FailNthDeviceWrite("dev0", 0);
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 6; ++i) {
    kvs.emplace_back(Key(i), std::string(1060, 'a' + static_cast<char>(i)));
  }
  std::vector<KvStore::BatchOp> ops = MakeOps(kvs);
  std::vector<Status> statuses;
  Status result = (*store)->WriteBatch(ops, &statuses);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(statuses.size(), ops.size());
  size_t failed_at = statuses.size();
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (!statuses[i].ok()) {
      failed_at = i;
      break;
    }
  }
  ASSERT_GT(failed_at, 0u) << "expected a non-empty committed prefix";
  ASSERT_LT(failed_at, statuses.size()) << "expected a mid-group failure";
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (i < failed_at) {
      EXPECT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
      auto got = (*store)->Get(kvs[i].first);
      ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
      EXPECT_EQ(*got, kvs[i].second);
    } else {
      // The op that hit the failure and everything after it share the error.
      EXPECT_FALSE(statuses[i].ok()) << i;
    }
  }
}

// --- replication: one doorbell per group ---------------------------------------

struct GroupCluster {
  std::unique_ptr<Fabric> fabric = std::make_unique<Fabric>();
  std::unique_ptr<BlockDevice> primary_device;
  std::vector<std::unique_ptr<BlockDevice>> backup_devices;
  std::unique_ptr<PrimaryRegion> primary;
  std::vector<std::unique_ptr<SendIndexBackupRegion>> backups;
};

GroupCluster MakeGroupCluster(int num_backups, const KvStoreOptions& opts,
                              int max_attempts = 1) {
  GroupCluster c;
  c.primary_device = MakeDevice("primary0-dev");
  auto primary = PrimaryRegion::Create(c.primary_device.get(), opts, ReplicationMode::kSendIndex);
  EXPECT_TRUE(primary.ok());
  c.primary = std::move(*primary);
  for (int i = 0; i < num_backups; ++i) {
    c.backup_devices.push_back(MakeDevice("backup" + std::to_string(i) + "-dev"));
    auto buffer = c.fabric->RegisterBuffer("backup" + std::to_string(i), "primary0", kSegmentSize);
    auto backup = SendIndexBackupRegion::Create(c.backup_devices.back().get(), opts, buffer);
    EXPECT_TRUE(backup.ok());
    c.backups.push_back(std::move(*backup));
    c.primary->AddBackup(std::make_unique<LocalBackupChannel>(
        c.fabric.get(), "primary0", buffer, c.backups.back().get(), max_attempts));
  }
  return c;
}

TEST(GroupCommitTest, OneDoorbellCoversTheWholeGroup) {
  auto cluster = MakeGroupCluster(1, SmallOptions());
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 16; ++i) {
    kvs.emplace_back(Key(i), ValueFor(i));
  }
  std::vector<Status> statuses;
  ASSERT_TRUE(cluster.primary->WriteBatch(MakeOps(kvs), &statuses).ok());
  EXPECT_EQ(Metric(*cluster.primary, "wp.doorbells"), 1u);
  EXPECT_EQ(Metric(*cluster.primary, "wp.doorbell_records"), 16u);
  EXPECT_EQ(Metric(*cluster.primary, "repl.log_records_replicated"), 16u);
  // Unflushed tail records are served from the replica's buffer mirror
  // (DebugGet only sees the shipped index; the fenced read path sees the
  // tail — fence zero, so nothing is rejected).
  for (const auto& [key, value] : kvs) {
    auto got = cluster.backups[0]->Get(key, /*min_epoch=*/0, /*min_seq=*/0, nullptr);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, value);
  }
  // The same data written one op at a time costs one doorbell per record.
  for (int i = 16; i < 32; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i), ValueFor(i)).ok());
  }
  EXPECT_EQ(Metric(*cluster.primary, "wp.doorbells"), 1u + 16u);
  EXPECT_EQ(Metric(*cluster.primary, "wp.doorbell_records"), 32u);
}

TEST(GroupCommitTest, PartialGroupReplicatesOnlyAppliedOps) {
  auto cluster = MakeGroupCluster(1, SmallOptions());
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 8; ++i) {
    kvs.emplace_back(Key(i), ValueFor(i));
  }
  kvs[4].first = "";  // fails alone, rest of the group commits
  std::vector<Status> statuses;
  ASSERT_TRUE(cluster.primary->WriteBatch(MakeOps(kvs), &statuses).ok());
  EXPECT_EQ(statuses[4].code(), StatusCode::kInvalidArgument);
  for (size_t i = 0; i < kvs.size(); ++i) {
    if (i == 4) {
      continue;
    }
    EXPECT_TRUE(statuses[i].ok()) << i;
    auto got = cluster.backups[0]->Get(kvs[i].first, 0, 0, nullptr);
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, kvs[i].second);
  }
  EXPECT_EQ(Metric(*cluster.primary, "wp.doorbell_records"), 7u);
}

TEST(GroupCommitTest, BackupAttachedMidTailSeesAckedRecords) {
  // AddBackup seeds the tail image, so a backup attached after writes (the
  // promote -> re-attach window) cannot hold a hole over acked records.
  KvStoreOptions opts = SmallOptions();
  auto cluster = MakeGroupCluster(0, opts);
  std::vector<std::pair<std::string, std::string>> kvs;
  for (int i = 0; i < 6; ++i) {
    kvs.emplace_back(Key(i), i % 2 == 0 ? std::string(64, 's') : std::string(2000, 'L'));
  }
  std::vector<Status> statuses;
  ASSERT_TRUE(cluster.primary->WriteBatch(MakeOps(kvs), &statuses).ok());
  // Attach a backup now, mid-tail, with a one-segment buffer: the seed is
  // the whole replication image.
  cluster.backup_devices.push_back(MakeDevice("late-dev"));
  auto buffer = cluster.fabric->RegisterBuffer("late", "primary0", kSegmentSize);
  auto backup = SendIndexBackupRegion::Create(cluster.backup_devices.back().get(), opts, buffer);
  ASSERT_TRUE(backup.ok());
  cluster.backups.push_back(std::move(*backup));
  cluster.primary->AddBackup(std::make_unique<LocalBackupChannel>(
      cluster.fabric.get(), "primary0", buffer, cluster.backups.back().get(), 1));
  for (const auto& [key, value] : kvs) {
    auto got = cluster.backups.back()->Get(key, 0, 0, nullptr);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, value);
  }
}

// --- group-commit crash points (PR 1 matrix extension) -------------------------
//
// The group's doorbell is the only path that makes its records backup-visible:
// crash exactly there (after the engine append, before the one-sided write
// lands) and the promoted backup must hold every acked group and nothing of
// the unacked one. Halt just after the doorbell and the group counts as
// durable on the replica even though the primary died before acking.

constexpr int kCrashGroups = 200;
constexpr int kGroupSize = 8;

void RunGroupCommitCrashCase(bool halt_after) {
  SCOPED_TRACE(halt_after ? "halt-after-doorbell" : "crash-at-doorbell");
  auto cluster = MakeGroupCluster(1, SmallOptions());
  FaultInjector injector(/*seed=*/7);
  cluster.fabric->set_fault_injector(&injector);
  if (halt_after) {
    injector.HaltAfterNth(FaultSite::kFabricWrite, 6, "primary0");
  } else {
    injector.CrashAtNth(FaultSite::kFabricWrite, 6, "primary0");
  }
  std::map<std::string, std::string> acked;
  std::vector<std::string> crashed_group;
  for (int g = 0; g < kCrashGroups && crashed_group.empty(); ++g) {
    std::vector<std::pair<std::string, std::string>> kvs;
    for (int i = 0; i < kGroupSize; ++i) {
      kvs.emplace_back(Key(g * kGroupSize + i), ValueFor(g * kGroupSize + i));
    }
    std::vector<Status> statuses;
    Status s = cluster.primary->WriteBatch(MakeOps(kvs), &statuses);
    if (!s.ok()) {
      for (const Status& op : statuses) {
        EXPECT_FALSE(op.ok()) << "no op of an unreplicated group may ack";
      }
      for (auto& [key, value] : kvs) {
        crashed_group.push_back(key);
      }
      break;
    }
    for (auto& [key, value] : kvs) {
      acked[key] = value;
    }
  }
  ASSERT_TRUE(injector.crash_fired()) << "crash rule never fired";
  ASSERT_FALSE(crashed_group.empty()) << "crash fired but every group acked";

  cluster.fabric->set_fault_injector(nullptr);
  auto promoted = cluster.backups[0]->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  // Every acked group survives promotion in full.
  for (const auto& [key, value] : acked) {
    auto got = (*promoted)->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, value);
  }
  if (!halt_after) {
    // The doorbell itself was the crash: nothing of the unacked group may
    // surface after recovery.
    for (const std::string& key : crashed_group) {
      EXPECT_TRUE((*promoted)->Get(key).status().IsNotFound()) << key;
    }
  }
}

TEST(GroupCommitCrashTest, CrashBetweenGroupAppendAndDoorbell) {
  RunGroupCommitCrashCase(/*halt_after=*/false);
}

TEST(GroupCommitCrashTest, DeathAfterDoorbellKeepsGroupOnReplica) {
  RunGroupCommitCrashCase(/*halt_after=*/true);
}

// --- client batching end to end ------------------------------------------------

struct BatchClusterFixture {
  explicit BatchClusterFixture(int num_servers = 3, uint32_t num_regions = 4) {
    RegionServerOptions options;
    options.device_options.segment_size = kSegmentSize;
    options.device_options.max_segments = 1 << 16;
    options.kv_options.l0_max_entries = 256;
    options.kv_options.max_levels = 3;
    options.replication_mode = ReplicationMode::kSendIndex;
    std::vector<std::string> names;
    for (int i = 0; i < num_servers; ++i) {
      names.push_back("server" + std::to_string(i));
      servers.push_back(std::make_unique<RegionServer>(&fabric, &zk, names.back(), options));
      EXPECT_TRUE(servers.back()->Start().ok());
      directory[names.back()] = servers.back().get();
    }
    master = std::make_unique<Master>(&zk, "master0", directory);
    EXPECT_TRUE(master->Campaign().ok());
    auto map = RegionMap::CreateUniform(num_regions, "user", 10, 1000000000ull, names,
                                        /*replication_factor=*/2);
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

  static std::string UserKey(uint64_t i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "user%010llu",
             static_cast<unsigned long long>(i * 7919 % 1000000000ull));
    return buf;
  }

  Fabric fabric;
  Coordinator zk;
  std::vector<std::unique_ptr<RegionServer>> servers;
  std::map<std::string, RegionServer*> directory;
  std::unique_ptr<Master> master;
};

TEST(ClientBatchingTest, CoalescedPutsCommitAndReadBack) {
  BatchClusterFixture cluster;
  auto client = cluster.MakeClient("client0");
  client->set_batching(8);
  std::vector<TebisClient::OpHandle> handles;
  for (int i = 0; i < 200; ++i) {
    auto h = client->PutAsync(BatchClusterFixture::UserKey(i), "batched-" + std::to_string(i));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    handles.push_back(*h);
  }
  ASSERT_TRUE(client->WaitAll().ok());
  EXPECT_GT(client->stats().batches_sent, 0u);
  EXPECT_GT(client->stats().batched_ops, 150u);  // trailing partial groups may re-issue singly
  for (int i = 0; i < 200; i += 7) {
    auto v = client->Get(BatchClusterFixture::UserKey(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status().ToString();
    EXPECT_EQ(*v, "batched-" + std::to_string(i));
  }
}

TEST(ClientBatchingTest, WaitOnIndividualHandlesResolvesBatchedOps) {
  BatchClusterFixture cluster;
  auto client = cluster.MakeClient("client0");
  client->set_batching(16);
  std::vector<TebisClient::OpHandle> handles;
  for (int i = 0; i < 50; ++i) {
    auto h = client->PutAsync(BatchClusterFixture::UserKey(i), "w-" + std::to_string(i));
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  // Waiting in arbitrary order flushes staged groups and distributes per-op
  // statuses from each batch reply.
  for (size_t i = handles.size(); i-- > 0;) {
    EXPECT_TRUE(client->Wait(handles[i]).status.ok()) << i;
  }
  EXPECT_EQ(client->pending(), 0u);
}

TEST(ClientBatchingTest, PerOpStatusesSurfaceMixedOutcomes) {
  BatchClusterFixture cluster;
  auto client = cluster.MakeClient("client0");
  client->set_batching(8);
  std::vector<TebisClient::OpHandle> handles;
  std::vector<bool> expect_ok;
  for (int i = 0; i < 8; ++i) {
    std::string key = BatchClusterFixture::UserKey(i);
    if (i == 3) {
      key += std::string(300, 'x');  // key > kMaxKeySize: the engine rejects it alone
      expect_ok.push_back(false);
    } else {
      expect_ok.push_back(true);
    }
    auto h = client->PutAsync(key, "mixed-" + std::to_string(i));
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    TebisClient::OpResult result = client->Wait(handles[i]);
    if (expect_ok[i]) {
      EXPECT_TRUE(result.status.ok()) << i << ": " << result.status.ToString();
    } else {
      EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
          << i << ": " << result.status.ToString();
    }
  }
  for (int i = 0; i < 8; ++i) {
    if (!expect_ok[i]) {
      continue;
    }
    auto v = client->Get(BatchClusterFixture::UserKey(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "mixed-" + std::to_string(i));
  }
}

TEST(ClientBatchingTest, ReadsFlushStagedWrites) {
  BatchClusterFixture cluster;
  auto client = cluster.MakeClient("client0");
  client->set_batching(64);  // threshold far above what we stage
  auto h = client->PutAsync(BatchClusterFixture::UserKey(1), "staged");
  ASSERT_TRUE(h.ok());
  // The read must not overtake the staged write.
  auto v = client->Get(BatchClusterFixture::UserKey(1));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "staged");
  EXPECT_TRUE(client->WaitAll().ok());
}

TEST(ClientBatchingTest, WaitFlushesEveryStagedGroup) {
  BatchClusterFixture cluster;  // 4 uniform regions over user0000000000..
  auto client = cluster.MakeClient("client0");
  client->set_batching(16);  // threshold far above what we stage
  // Region r owns [r * 250000000, (r + 1) * 250000000): stage three writes in
  // each of three regions, the first two of region 0 to the same key.
  auto key = [](uint64_t region, uint64_t i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "user%010llu",
             static_cast<unsigned long long>(region * 250000000ull + i));
    return std::string(buf);
  };
  constexpr uint64_t kRegions = 3;
  std::vector<TebisClient::OpHandle> handles;
  for (uint64_t r = 0; r < kRegions; ++r) {
    for (uint64_t i = 0; i < 3; ++i) {
      const std::string k = r == 0 && i == 1 ? key(0, 0) : key(r, i);
      auto h = client->PutAsync(k, "v" + std::to_string(r) + "-" + std::to_string(i));
      ASSERT_TRUE(h.ok()) << h.status().ToString();
      handles.push_back(*h);
    }
  }
  EXPECT_EQ(client->stats().batches_sent, 0u);
  // Waiting on one staged op puts every region's group on the wire.
  ASSERT_TRUE(client->Wait(handles.back()).status.ok());
  EXPECT_EQ(client->stats().batches_sent, kRegions);
  EXPECT_EQ(client->stats().batched_ops, 3 * kRegions);
  ASSERT_TRUE(client->WaitAll().ok());
  EXPECT_EQ(client->stats().batches_sent, kRegions);
  // Two writes to one key in one frame keep their order: the later wins.
  auto v = client->Get(key(0, 0));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "v0-1");
  for (uint64_t r = 1; r < kRegions; ++r) {
    for (uint64_t i = 0; i < 3; ++i) {
      auto got = client->Get(key(r, i));
      ASSERT_TRUE(got.ok()) << r << "/" << i << ": " << got.status().ToString();
      EXPECT_EQ(*got, "v" + std::to_string(r) + "-" + std::to_string(i));
    }
  }
}

TEST(ClientBatchingTest, BatchSizeOneStaysOnSingleOpWire) {
  BatchClusterFixture cluster;
  auto client = cluster.MakeClient("client0");
  // Default batch_size=1: no kKvBatch frame is ever emitted.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client->Put(BatchClusterFixture::UserKey(i), "single").ok());
  }
  EXPECT_EQ(client->stats().batches_sent, 0u);
  EXPECT_EQ(client->stats().batched_ops, 0u);
  EXPECT_EQ(client->stats().puts, 40u);
}

TEST(ClientBatchingTest, DeletesRideBatchesWithPuts) {
  BatchClusterFixture cluster;
  auto client = cluster.MakeClient("client0");
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(client->Put(BatchClusterFixture::UserKey(i), "before").ok());
  }
  client->set_batching(8);
  for (int i = 0; i < 16; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(client->DeleteAsync(BatchClusterFixture::UserKey(i)).ok());
    } else {
      ASSERT_TRUE(client->PutAsync(BatchClusterFixture::UserKey(i), "after").ok());
    }
  }
  ASSERT_TRUE(client->WaitAll().ok());
  for (int i = 0; i < 16; ++i) {
    auto v = client->Get(BatchClusterFixture::UserKey(i));
    if (i % 2 == 0) {
      EXPECT_TRUE(v.status().IsNotFound()) << i;
    } else {
      ASSERT_TRUE(v.ok()) << i;
      EXPECT_EQ(*v, "after");
    }
  }
}

TEST(ClientBatchingTest, BatchFallsBackWhenPrimaryCrashes) {
  BatchClusterFixture cluster;
  auto client = cluster.MakeClient("client0");
  client->set_rpc_timeout_ns(50ull * 1000 * 1000);
  client->set_batching(8);
  // Crash a primary between rounds: batch frames addressed to it die as a
  // unit and every staged op re-issues through the single-op failover path.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(client->PutAsync(BatchClusterFixture::UserKey(i), "pre-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(client->WaitAll().ok());
  cluster.servers[0]->Crash();  // the master reacts to the ephemeral-node drop
  for (int i = 32; i < 64; ++i) {
    ASSERT_TRUE(
        client->PutAsync(BatchClusterFixture::UserKey(i), "post-" + std::to_string(i)).ok());
  }
  Status s = client->WaitAll();
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (int i = 32; i < 64; i += 5) {
    auto v = client->Get(BatchClusterFixture::UserKey(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status().ToString();
    EXPECT_EQ(*v, "post-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace tebis
