// Robustness of the replication plane under ugly failures (paper §3.5):
//   * epoch fencing — a deposed primary's traffic (one-sided log writes and
//     control messages alike) is rejected by every backup, so a split brain
//     never corrupts a replica;
//   * slow-not-dead backups — the primary's health policy detaches a stalled
//     replica unilaterally, foreground writes keep flowing, and the master
//     reconciles the detach record with a full-synced replacement;
//   * cascading failures — a replacement that fails mid-full-sync is skipped
//     for the next candidate, and a master that dies mid-failover leaves a
//     recovery intent a standby rolls forward.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/master.h"
#include "src/cluster/region_server.h"
#include "src/replication/build_index_backup.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"
#include "src/testing/fault_injector.h"
#include "tests/metric_reader.h"

namespace tebis {
namespace {

constexpr uint64_t kSegmentSize = 1 << 16;

// --- unit-level fencing (no cluster, in-process channel) --------------------

std::unique_ptr<BlockDevice> MakeDevice() {
  BlockDeviceOptions opts;
  opts.segment_size = kSegmentSize;
  opts.max_segments = 1 << 16;
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

struct LocalPair {
  std::unique_ptr<Fabric> fabric = std::make_unique<Fabric>();
  std::unique_ptr<BlockDevice> primary_device;
  std::unique_ptr<BlockDevice> backup_device;
  std::unique_ptr<PrimaryRegion> primary;
  std::unique_ptr<BackupRegion> backup;
  std::shared_ptr<RegisteredBuffer> buffer;
};

LocalPair MakeLocalPair(ReplicationMode mode) {
  LocalPair c;
  c.primary_device = MakeDevice();
  auto primary = PrimaryRegion::Create(c.primary_device.get(), SmallOptions(), mode);
  EXPECT_TRUE(primary.ok());
  c.primary = std::move(*primary);
  c.backup_device = MakeDevice();
  c.buffer = c.fabric->RegisterBuffer("backup0", "primary0", kSegmentSize);
  if (mode == ReplicationMode::kSendIndex) {
    auto backup = SendIndexBackupRegion::Create(c.backup_device.get(), SmallOptions(), c.buffer);
    EXPECT_TRUE(backup.ok());
    c.backup = std::move(*backup);
  } else {
    auto backup = BuildIndexBackupRegion::Create(c.backup_device.get(), SmallOptions(), c.buffer);
    EXPECT_TRUE(backup.ok());
    c.backup = std::move(*backup);
  }
  c.primary->AddBackup(std::make_unique<LocalBackupChannel>(c.fabric.get(), "primary0", c.buffer,
                                                            c.backup.get()));
  return c;
}

void ExpectDeposedPrimaryFenced(ReplicationMode mode) {
  LocalPair c = MakeLocalPair(mode);
  c.primary->set_epoch(1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(c.primary->Put("key-" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_EQ(c.buffer->stale_write_rejects(), 0u);

  // The backup learns of a newer configuration (epoch 2): this primary is now
  // deposed. Its one-sided log writes must be fenced before the memcpy...
  c.backup->set_region_epoch(2);
  Status fenced = c.primary->Put("stale-key", "stale-value");
  EXPECT_TRUE(fenced.IsFailedPrecondition()) << fenced.ToString();
  EXPECT_GT(c.buffer->stale_write_rejects(), 0u);
  EXPECT_GT(Metric(*c.primary, "repl.fence_errors"), 0u);
  // ...and fencing is not a health strike: the replica is fine, WE are stale.
  EXPECT_EQ(Metric(*c.primary, "repl.slow_call_strikes"), 0u);
  EXPECT_EQ(Metric(*c.primary, "repl.backups_detached"), 0u);

  // Control plane too: a control message stamped with the stale generation is
  // rejected by the backup's epoch check before its handler runs.
  LocalBackupChannel stale_channel(c.fabric.get(), "primary0", c.buffer, c.backup.get());
  stale_channel.set_epoch(1);
  const uint64_t rejected_before = Metric(*c.backup, "backup.epoch_rejected");
  Status ctrl = stale_channel.Send(FlushLogMsg{});
  EXPECT_TRUE(ctrl.IsFailedPrecondition()) << ctrl.ToString();
  EXPECT_GT(Metric(*c.backup, "backup.epoch_rejected"), rejected_before);

  // Zero stale bytes: the fenced record never reached the backup.
  EXPECT_TRUE(c.backup->DebugGet("stale-key").status().IsNotFound());

  // Epochs fence configurations, not nodes: under a newer generation the data
  // path opens up again, and the backup adopts the epoch from the first
  // control message that carries it.
  c.primary->set_epoch(3);
  EXPECT_TRUE(c.primary->Put("fresh-key", "fresh-value").ok());
  stale_channel.set_epoch(3);
  EXPECT_TRUE(stale_channel.Send(FlushLogMsg{.tail_bytes = kSegmentSize}).ok());
  EXPECT_EQ(c.backup->region_epoch(), 3u);
  EXPECT_TRUE(c.backup->DebugGet("stale-key").status().IsNotFound());
}

// The fence lives in the log-replication frame both engines share.
TEST(EpochFencingTest, DeposedPrimaryRejectedOnDataAndControlPlane) {
  for (ReplicationMode mode : {ReplicationMode::kSendIndex, ReplicationMode::kBuildIndex}) {
    SCOPED_TRACE(mode == ReplicationMode::kSendIndex ? "Send-Index" : "Build-Index");
    ExpectDeposedPrimaryFenced(mode);
  }
}

// --- cluster fixtures -------------------------------------------------------

struct RobustClusterConfig {
  ReplicationMode mode = ReplicationMode::kSendIndex;
  int num_servers = 3;
  uint32_t num_regions = 1;
  int replication_factor = 2;
  ReplicationPolicy policy;           // default: unilateral detach disabled
  FaultInjector* injector = nullptr;  // installed on the fabric before Start()
  uint64_t segment_size = kSegmentSize;
};

struct RobustCluster {
  explicit RobustCluster(const RobustClusterConfig& config) {
    if (config.injector != nullptr) {
      fabric.set_fault_injector(config.injector);
    }
    RegionServerOptions options;
    options.device_options.segment_size = config.segment_size;
    options.device_options.max_segments = 1 << 16;
    options.kv_options.l0_max_entries = 256;
    options.kv_options.max_levels = 3;
    options.replication_mode = config.mode;
    options.replication_policy = config.policy;
    std::vector<std::string> names;
    for (int i = 0; i < config.num_servers; ++i) {
      names.push_back("server" + std::to_string(i));
      servers.push_back(std::make_unique<RegionServer>(&fabric, &zk, names.back(), options));
      EXPECT_TRUE(servers.back()->Start().ok());
      directory[names.back()] = servers.back().get();
    }
    master = std::make_unique<Master>(&zk, "m0", directory);
    EXPECT_TRUE(master->Campaign().ok());
    auto map = RegionMap::CreateUniform(config.num_regions, "user", 10, 1000000, names,
                                        config.replication_factor);
    EXPECT_TRUE(map.ok());
    EXPECT_TRUE(master->Bootstrap(*map).ok());
  }

  ~RobustCluster() {
    for (auto& server : servers) {
      server->Stop();
    }
  }

  // `exclude` drops one server from the seed list — a client bootstrapping
  // after a failover must not learn the map from the deposed node, which
  // keeps serving its stale configuration until operators reap it.
  std::unique_ptr<TebisClient> MakeClient(const std::string& name,
                                          const std::string& exclude = "") {
    std::vector<std::string> seeds;
    for (auto& [server_name, server] : directory) {
      if (server_name != exclude) {
        seeds.push_back(server_name);
      }
    }
    auto client = std::make_unique<TebisClient>(
        &fabric, name,
        [this](const std::string& server) -> ServerEndpoint* {
          auto it = directory.find(server);
          return (it == directory.end() || it->second->crashed())
                     ? nullptr
                     : it->second->client_endpoint();
        },
        seeds);
    client->set_rpc_timeout_ns(1'000'000'000ull);
    EXPECT_TRUE(client->Connect().ok());
    return client;
  }

  static std::string Key(uint64_t i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "user%010llu", static_cast<unsigned long long>(i % 1000000));
    return buf;
  }

  Fabric fabric;
  Coordinator zk;
  std::vector<std::unique_ptr<RegionServer>> servers;
  std::map<std::string, RegionServer*> directory;
  std::unique_ptr<Master> master;
};

// The {node, region, role} labels a RegionServer stamps on a region engine
// when it opens it.
MetricLabels RegionLabels(const RegionServer* server, uint32_t region, const char* role) {
  return {{"node", server->name()}, {"region", std::to_string(region)}, {"role", role}};
}

// Polls `predicate` until it holds or ~10 s pass (generous for sanitizers).
bool WaitFor(const std::function<bool()>& predicate) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

// --- deposed primary, full cluster ------------------------------------------

TEST(DeposedPrimaryTest, StaleEpochTrafficNeverLandsOnBackups) {
  RobustClusterConfig config;
  config.num_servers = 3;
  config.num_regions = 1;
  config.replication_factor = 3;
  RobustCluster cluster(config);
  auto stale_client = cluster.MakeClient("stale-client");

  std::map<std::string, std::string> model;
  for (int i = 0; i < 400; ++i) {
    std::string key = RobustCluster::Key(i * 13);
    model[key] = "pre-" + std::to_string(i);
    ASSERT_TRUE(stale_client->Put(key, model[key]).ok());
  }
  auto before = cluster.master->current_map();
  const std::string old_primary = before->FindById(0)->primary;
  const uint64_t old_epoch = before->FindById(0)->epoch;
  RegionServer* deposed = cluster.directory.at(old_primary);

  // The failure detector declares the primary dead (its coordinator session
  // expires) while the process keeps serving its stale configuration — the
  // classic false-positive split brain the epoch fences against.
  deposed->DropCoordinatorSession();
  auto after = cluster.master->current_map();
  const std::string new_primary = after->FindById(0)->primary;
  ASSERT_NE(new_primary, old_primary);
  EXPECT_GT(after->FindById(0)->epoch, old_epoch);

  // The stale client still routes to the deposed primary, which accepts the
  // request but cannot replicate it: every backup fences the stale epoch, the
  // write is never acked, and the client sees only a retriable failure.
  Status stale_put = stale_client->Put(RobustCluster::Key(777777), "stale-write");
  EXPECT_FALSE(stale_put.ok());
  EXPECT_TRUE(stale_put.IsUnavailable()) << stale_put.ToString();
  EXPECT_GE(stale_client->stats().failover_retries, 1u);
  ASSERT_TRUE(deposed->IsPrimaryFor(0));
  const MetricLabels deposed_labels = RegionLabels(deposed, 0, "primary");
  const uint64_t fence_before =
      ReadMetric(deposed->telemetry(), "repl.fence_errors", deposed_labels);
  EXPECT_GT(fence_before, 0u);

  // One-sided writes were rejected before the memcpy on every surviving node.
  uint64_t stale_rejects = 0;
  for (auto& [name, server] : cluster.directory) {
    if (name == old_primary) {
      continue;
    }
    auto buffer = server->GetReplicationBuffer(0);
    if (buffer.ok()) {
      stale_rejects += (*buffer)->stale_write_rejects();
    }
  }
  EXPECT_GT(stale_rejects, 0u);

  // Control plane: a tail flush from the deposed primary ships FlushLog
  // messages that the surviving backup fences by epoch (the promoted node
  // refuses them outright as replication ops on a primary). The local flush
  // itself succeeds — the fence error parks inside the region and shows up
  // in its stats.
  (void)deposed->FlushRegionTail(0);
  ASSERT_TRUE(deposed->IsPrimaryFor(0));
  EXPECT_GT(ReadMetric(deposed->telemetry(), "repl.fence_errors", deposed_labels), fence_before);
  uint64_t epoch_rejected = 0;
  for (const auto& backup : after->FindById(0)->backups) {
    // A listed backup whose server no longer hosts the replica adds nothing.
    RegionServer* server = cluster.directory.at(backup);
    epoch_rejected += server->telemetry()->metrics()->Snapshot().Sum(
        "backup.epoch_rejected", RegionLabels(server, 0, "backup"));
  }
  EXPECT_GT(epoch_rejected, 0u);

  // A fresh client (seeded off a live server — the deposed one would hand it
  // the stale map and its unreplicated local write) sees every acked write,
  // no trace of the fenced one, and the region keeps accepting writes under
  // the new configuration.
  auto fresh_client = cluster.MakeClient("fresh-client", old_primary);
  for (const auto& [key, value] : model) {
    auto v = fresh_client->Get(key);
    ASSERT_TRUE(v.ok()) << key << " " << v.status().ToString();
    EXPECT_EQ(*v, value) << key;
  }
  EXPECT_TRUE(fresh_client->Get(RobustCluster::Key(777777)).status().IsNotFound());
  ASSERT_TRUE(fresh_client->Put(RobustCluster::Key(777777), "post-failover").ok());
  auto v = fresh_client->Get(RobustCluster::Key(777777));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "post-failover");
}

// --- slow-not-dead backup ---------------------------------------------------

TEST(StuckBackupTest, StalledBackupDetachedAndReplacedWhileWritesFlow) {
  FaultInjector injector(/*seed=*/42);
  SCOPED_TRACE("seed=42 — replay with TEBIS_CHAOS_SEED=42");
  RobustClusterConfig config;
  config.num_servers = 3;
  config.num_regions = 1;
  config.replication_factor = 2;
  config.policy.max_consecutive_failures = 3;
  config.policy.call_deadline_ns = 5'000'000;  // 5 ms per control call
  config.injector = &injector;
  config.segment_size = 1 << 14;  // frequent tail flushes -> frequent control calls
  RobustCluster cluster(config);
  auto client = cluster.MakeClient("client0");

  auto map = cluster.master->current_map();
  const std::string primary_name = map->FindById(0)->primary;
  ASSERT_EQ(map->FindById(0)->backups.size(), 1u);
  const std::string stuck = map->FindById(0)->backups[0];
  RegionServer* primary = cluster.directory.at(primary_name);
  const MetricLabels primary_labels = RegionLabels(primary, 0, "primary");
  ASSERT_EQ(ReadMetric(primary->telemetry(), "repl.backups_detached", primary_labels), 0u);
  // Polled after every put below: the instrument itself, not a snapshot of
  // the whole plane (the read above proved the series exists).
  const Counter* backups_detached =
      primary->telemetry()->metrics()->GetCounter("repl.backups_detached", primary_labels);
  const std::string value(100, 'x');

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client->Put(RobustCluster::Key(i), value).ok());
  }

  // Stall the backup's CPU (control calls crawl; its NIC, heartbeat, and the
  // one-sided data path stay healthy) at 4x the per-call deadline.
  injector.StallNode(stuck, /*delay_micros=*/20'000);

  // Foreground writes must keep succeeding while strikes accumulate; the
  // health policy detaches the replica after 3 consecutive overdue calls.
  uint64_t max_put_nanos = 0;
  bool detached = false;
  for (int i = 0; i < 20000 && !detached; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client->Put(RobustCluster::Key(1000 + i), value).ok()) << i;
    const auto elapsed = std::chrono::steady_clock::now() - start;
    max_put_nanos = std::max<uint64_t>(
        max_put_nanos, std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    ASSERT_TRUE(primary->IsPrimaryFor(0));
    detached = backups_detached->Value() > 0;
  }
  ASSERT_TRUE(detached) << "health policy never detached the stalled backup";
  ASSERT_TRUE(primary->IsPrimaryFor(0));
  EXPECT_EQ(ReadMetric(primary->telemetry(), "repl.backups_detached", primary_labels), 1u);
  EXPECT_GE(ReadMetric(primary->telemetry(), "repl.slow_call_strikes", primary_labels), 3u);
  // Degraded-mode puts are bounded by a handful of stalled control calls, not
  // by the stall forever (generous ceiling for sanitizer builds).
  EXPECT_LT(max_put_nanos, 2'000'000'000ull);

  // The master consumes the /detached record and wires a full-synced
  // replacement: the stalled node is out, the spare is in.
  ASSERT_TRUE(WaitFor([&] {
    auto m = cluster.master->current_map();
    const RegionInfo* region = m->FindById(0);
    return region->backups.size() == 1 && region->backups[0] != stuck;
  })) << "master never reconciled the detach record";
  auto reconciled = cluster.master->current_map();
  EXPECT_GT(reconciled->FindById(0)->epoch, 1u);

  // The replacement is a real replica: crash the primary and read everything
  // back from the promoted spare.
  injector.UnstallNode(stuck);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(client->Put(RobustCluster::Key(i), "post-detach").ok());
  }
  cluster.directory.at(primary_name)->Crash();
  for (int i = 0; i < 100; i += 7) {
    auto v = client->Get(RobustCluster::Key(i));
    ASSERT_TRUE(v.ok()) << i << " " << v.status().ToString();
    EXPECT_EQ(*v, "post-detach");
  }
}

// --- cascading failures -----------------------------------------------------

TEST(CascadingFailureTest, ReplacementDiesMidFullSyncNextCandidateTried) {
  FaultInjector injector(/*seed=*/7);
  SCOPED_TRACE("seed=7 — replay with TEBIS_CHAOS_SEED=7");
  RobustClusterConfig config;
  config.num_servers = 4;
  config.num_regions = 1;
  config.replication_factor = 2;
  config.injector = &injector;
  RobustCluster cluster(config);
  auto client = cluster.MakeClient("client0");

  std::map<std::string, std::string> model;
  for (int i = 0; i < 600; ++i) {
    std::string key = RobustCluster::Key(i * 11);
    model[key] = "v-" + std::to_string(i);
    ASSERT_TRUE(client->Put(key, model[key]).ok());
  }
  auto map = cluster.master->current_map();
  const std::string primary_name = map->FindById(0)->primary;   // server0
  const std::string lost_backup = map->FindById(0)->backups[0]; // server1

  // First candidate (server2, directory order) is unreachable on its
  // replication endpoint: its full sync fails mid-transfer and the master
  // must fall through to the next spare instead of wedging.
  injector.HaltNode("server2:repl");
  cluster.directory.at(lost_backup)->Crash();

  auto recovered = cluster.master->current_map();
  ASSERT_EQ(recovered->FindById(0)->backups.size(), 1u);
  EXPECT_EQ(recovered->FindById(0)->backups[0], "server3");
  // The half-synced leftovers on the failed candidate were torn down.
  EXPECT_TRUE(
      cluster.directory.at("server2")->GetReplicationBuffer(0).status().IsNotFound());
  EXPECT_GT(injector.stats().halted_drops, 0u);

  // The survivor chain is real: lose the primary too and read everything back
  // from the replacement-of-a-replacement.
  injector.ReviveNode("server2:repl");
  cluster.directory.at(primary_name)->Crash();
  auto final_map = cluster.master->current_map();
  EXPECT_EQ(final_map->FindById(0)->primary, "server3");
  for (const auto& [key, value] : model) {
    auto v = client->Get(key);
    ASSERT_TRUE(v.ok()) << key << " " << v.status().ToString();
    EXPECT_EQ(*v, value) << key;
  }
  ASSERT_TRUE(client->Put(RobustCluster::Key(999999), "still-writable").ok());
}

TEST(CascadingFailureTest, StandbyMasterResumesHalfFinishedFailover) {
  RobustClusterConfig config;
  config.num_servers = 4;
  config.num_regions = 2;
  config.replication_factor = 3;
  RobustCluster cluster(config);

  // The leader will die right after promoting the new primary for region 0 —
  // with the recovery intent journaled but the re-attach/replay unfinished.
  std::atomic<bool> fired{false};
  cluster.master->set_step_hook([&](const std::string& point) {
    if (point == "failover-promoted:0" && !fired.exchange(true)) {
      return false;
    }
    return true;
  });
  Master standby(&cluster.zk, "m1", cluster.directory);
  ASSERT_TRUE(standby.Campaign().ok());
  EXPECT_FALSE(standby.IsLeader());

  auto client = cluster.MakeClient("client0");
  std::map<std::string, std::string> model;
  for (int i = 0; i < 800; ++i) {
    std::string key = RobustCluster::Key(i * 997);
    model[key] = "m-" + std::to_string(i);
    ASSERT_TRUE(client->Put(key, model[key]).ok());
  }

  auto before = cluster.master->current_map();
  const std::string old_primary = before->FindById(0)->primary;
  const uint64_t old_version = before->version();
  cluster.directory.at(old_primary)->Crash();
  ASSERT_TRUE(fired.load());
  // The dying leader journaled the intent but never published a new map.
  EXPECT_TRUE(cluster.zk.Exists("/recovery/r0"));
  EXPECT_EQ(cluster.master->current_map()->version(), old_version);

  // The standby wins the election and rolls the intent forward: promotion is
  // already done on the chosen server, so it re-fetches the promotion log map
  // and finishes the re-key/re-attach/replay, then replaces the dead node.
  cluster.master->Fail();
  ASSERT_TRUE(standby.IsLeader());
  auto resumed = standby.current_map();
  ASSERT_NE(resumed, nullptr);
  EXPECT_GT(resumed->version(), old_version);
  EXPECT_FALSE(cluster.zk.Exists("/recovery/r0"));
  for (const auto& region : resumed->regions()) {
    EXPECT_NE(region.primary, old_primary);
    for (const auto& backup : region.backups) {
      EXPECT_NE(backup, old_primary);
    }
  }
  EXPECT_GT(resumed->FindById(0)->epoch, 1u);

  // No acked write was lost across the torn failover, and the cluster keeps
  // accepting writes under the standby.
  for (const auto& [key, value] : model) {
    auto v = client->Get(key);
    ASSERT_TRUE(v.ok()) << key << " " << v.status().ToString();
    EXPECT_EQ(*v, value) << key;
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client->Put(RobustCluster::Key(i * 31), "standby-era").ok());
  }
}

TEST(CascadingFailureTest, AbandonedIntentFallsBackToMembershipRecovery) {
  RobustClusterConfig config;
  config.num_servers = 4;
  config.num_regions = 1;
  config.replication_factor = 3;
  RobustCluster cluster(config);

  std::atomic<bool> fired{false};
  cluster.master->set_step_hook([&](const std::string& point) {
    if (point == "failover-promoted:0" && !fired.exchange(true)) {
      return false;
    }
    return true;
  });

  auto client = cluster.MakeClient("client0");
  std::map<std::string, std::string> model;
  for (int i = 0; i < 500; ++i) {
    std::string key = RobustCluster::Key(i * 17);
    model[key] = "a-" + std::to_string(i);
    ASSERT_TRUE(client->Put(key, model[key]).ok());
  }

  auto before = cluster.master->current_map();
  const std::string old_primary = before->FindById(0)->primary;
  const std::string promoted = before->FindById(0)->backups[0];
  cluster.directory.at(old_primary)->Crash();
  ASSERT_TRUE(fired.load());
  ASSERT_TRUE(cluster.zk.Exists("/recovery/r0"));

  // The leader dies with the intent half-executed, and THEN the server the
  // intent names dies too — with no master alive to see it. The intent now
  // points at a corpse.
  cluster.master->Fail();
  cluster.directory.at(promoted)->Crash();

  // A standby elected only now must notice the intent's chosen primary is
  // dead, abandon the journal entry, and redo recovery from scratch off the
  // current membership — promoting the remaining live replica.
  Master standby(&cluster.zk, "m1", cluster.directory);
  ASSERT_TRUE(standby.Campaign().ok());
  ASSERT_TRUE(standby.IsLeader());
  EXPECT_FALSE(cluster.zk.Exists("/recovery/r0"));
  auto resumed = standby.current_map();
  ASSERT_NE(resumed, nullptr);
  const RegionInfo* region = resumed->FindById(0);
  ASSERT_NE(region, nullptr);
  EXPECT_NE(region->primary, old_primary);
  EXPECT_NE(region->primary, promoted);
  for (const auto& backup : region->backups) {
    EXPECT_NE(backup, old_primary);
    EXPECT_NE(backup, promoted);
  }
  for (const auto& [key, value] : model) {
    auto v = client->Get(key);
    ASSERT_TRUE(v.ok()) << key << " " << v.status().ToString();
    EXPECT_EQ(*v, value) << key;
  }
  ASSERT_TRUE(client->Put(RobustCluster::Key(424242), "post-abandon").ok());
}

}  // namespace
}  // namespace tebis
