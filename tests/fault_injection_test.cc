// Deterministic fault injection: injector unit tests, per-layer hook tests
// (fabric / block device / RPC / replication channels), and the §3.5
// crash-point matrix — kill the primary at every replication protocol step,
// promote a backup, and check the promoted store against a non-faulty
// reference store.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lsm/kv_store.h"
#include "src/net/fabric.h"
#include "src/net/rpc_client.h"
#include "src/net/server_endpoint.h"
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

std::unique_ptr<BlockDevice> MakeDevice(const std::string& name = "") {
  BlockDeviceOptions opts;
  opts.segment_size = kSegmentSize;
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

std::string ValueFor(uint64_t i) {
  return "cv-" + std::to_string(i) + std::string(48, 'x');
}

// --- injector unit tests -----------------------------------------------------

TEST(FaultInjectorTest, FailNthFiresExactlyOnce) {
  FaultInjector injector;
  injector.FailNth(FaultSite::kRpcSend, 2, StatusCode::kUnavailable);
  EXPECT_TRUE(injector.OnSite(FaultSite::kRpcSend, "a", "b").ok());
  EXPECT_TRUE(injector.OnSite(FaultSite::kRpcSend, "a", "b").ok());
  Status failed = injector.OnSite(FaultSite::kRpcSend, "a", "b");
  EXPECT_TRUE(failed.IsUnavailable()) << failed.ToString();
  EXPECT_TRUE(injector.OnSite(FaultSite::kRpcSend, "a", "b").ok());
  const FaultInjectorStats stats = injector.stats();
  EXPECT_EQ(stats.seen[static_cast<int>(FaultSite::kRpcSend)], 4u);
  EXPECT_EQ(stats.injected[static_cast<int>(FaultSite::kRpcSend)], 1u);
  ASSERT_EQ(injector.history().size(), 1u);
  EXPECT_EQ(injector.history()[0].site, FaultSite::kRpcSend);
  EXPECT_EQ(injector.history()[0].event_index, 2u);
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  auto drive = [](uint64_t seed) {
    FaultInjector injector(seed);
    injector.FailWithProbability(FaultSite::kFabricWrite, 0.3);
    injector.FailWithProbability(FaultSite::kReplFlushSend, 0.1);
    for (int i = 0; i < 200; ++i) {
      (void)injector.OnSite(FaultSite::kFabricWrite, "p", "b");
      if (i % 5 == 0) {
        (void)injector.OnSite(FaultSite::kReplFlushSend, "p", "b");
      }
    }
    return injector.history();
  };
  const auto a = drive(42);
  const auto b = drive(42);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]) << "schedules diverge at fault " << i;
  }
  EXPECT_GT(a.size(), 0u);
  // A different seed produces a different schedule.
  const auto c = drive(43);
  bool identical = a.size() == c.size();
  for (size_t i = 0; identical && i < a.size(); ++i) {
    identical = a[i] == c[i];
  }
  EXPECT_FALSE(identical);
}

TEST(FaultInjectorTest, PartitionBlocksBothDirectionsUntilHealed) {
  FaultInjector injector;
  injector.Partition("n1", "n2");
  EXPECT_TRUE(injector.OnSite(FaultSite::kFabricWrite, "n1", "n2").IsUnavailable());
  EXPECT_TRUE(injector.OnSite(FaultSite::kFabricWrite, "n2", "n1").IsUnavailable());
  EXPECT_TRUE(injector.OnSite(FaultSite::kFabricWrite, "n1", "n3").ok());
  injector.Heal("n2", "n1");  // order-insensitive
  EXPECT_TRUE(injector.OnSite(FaultSite::kFabricWrite, "n1", "n2").ok());
  EXPECT_EQ(injector.stats().partition_drops, 2u);
}

TEST(FaultInjectorTest, FailedQueuePairBlocksOneDirection) {
  FaultInjector injector;
  injector.FailQueuePair(/*owner=*/"backup0", /*writer=*/"primary0");
  EXPECT_TRUE(injector.OnFabricWrite("primary0", "backup0").IsUnavailable());
  // The reverse direction is a different QP.
  EXPECT_TRUE(injector.OnFabricWrite("backup0", "primary0").ok());
  injector.RestoreQueuePair("backup0", "primary0");
  EXPECT_TRUE(injector.OnFabricWrite("primary0", "backup0").ok());
  EXPECT_EQ(injector.stats().qp_drops, 1u);
}

TEST(FaultInjectorTest, HaltedNodeDropsAllTrafficUntilRevived) {
  FaultInjector injector;
  injector.HaltNode("dead");
  EXPECT_TRUE(injector.IsHalted("dead"));
  EXPECT_TRUE(injector.OnSite(FaultSite::kReplFlushSend, "dead", "x").IsUnavailable());
  EXPECT_TRUE(injector.OnSite(FaultSite::kReplFlushAck, "x", "dead").IsUnavailable());
  injector.ReviveNode("dead");
  EXPECT_TRUE(injector.OnSite(FaultSite::kReplFlushSend, "dead", "x").ok());
  EXPECT_EQ(injector.stats().halted_drops, 2u);
}

TEST(FaultInjectorTest, ClearRulesPreservesCountersAndHistory) {
  FaultInjector injector;
  injector.FailNth(FaultSite::kRpcSend, 0);
  injector.Partition("a", "b");
  injector.HaltNode("c");
  EXPECT_FALSE(injector.OnSite(FaultSite::kRpcSend, "a", "x").ok());
  injector.ClearRules();
  EXPECT_FALSE(injector.IsHalted("c"));
  EXPECT_TRUE(injector.OnSite(FaultSite::kFabricWrite, "a", "b").ok());
  // Counters and history survive; the event index keeps counting.
  EXPECT_EQ(injector.stats().seen[static_cast<int>(FaultSite::kRpcSend)], 1u);
  EXPECT_EQ(injector.history().size(), 1u);
  EXPECT_TRUE(injector.OnSite(FaultSite::kRpcSend, "a", "x").ok());
  EXPECT_EQ(injector.stats().seen[static_cast<int>(FaultSite::kRpcSend)], 2u);
}

TEST(FaultInjectorTest, CrashAtNthHaltsTheNode) {
  FaultInjector injector;
  injector.CrashAtNth(FaultSite::kReplFlushSend, 1, "primary0");
  EXPECT_TRUE(injector.OnSite(FaultSite::kReplFlushSend, "primary0", "backup0").ok());
  EXPECT_FALSE(injector.crash_fired());
  EXPECT_TRUE(injector.OnSite(FaultSite::kReplFlushSend, "primary0", "backup0").IsUnavailable());
  EXPECT_TRUE(injector.crash_fired());
  EXPECT_TRUE(injector.IsHalted("primary0"));
  // Data-plane writes from the dead node are dropped too.
  EXPECT_TRUE(injector.OnFabricWrite("primary0", "backup0").IsUnavailable());
}

// --- block-device hooks ------------------------------------------------------

TEST(DeviceFaultTest, FailNthDeviceWriteReturnsIoError) {
  auto dev = MakeDevice("dev0");
  FaultInjector injector;
  dev->set_fault_hook(&injector);
  injector.FailNthDeviceWrite("dev0", 1);
  auto seg = dev->AllocateSegment();
  ASSERT_TRUE(seg.ok());
  std::string data(512, 'a');
  EXPECT_TRUE(dev->Write(dev->geometry().BaseOffset(*seg), Slice(data), IoClass::kOther).ok());
  Status failed = dev->Write(dev->geometry().BaseOffset(*seg), Slice(data), IoClass::kOther);
  EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed.ToString();
  // The failed write left the segment untouched and later writes succeed.
  EXPECT_TRUE(dev->Write(dev->geometry().BaseOffset(*seg), Slice(data), IoClass::kOther).ok());
  EXPECT_EQ(injector.stats().injected[static_cast<int>(FaultSite::kDeviceWrite)], 1u);
}

TEST(DeviceFaultTest, TornWriteAppliesPrefixThenFails) {
  auto dev = MakeDevice("dev0");
  FaultInjector injector;
  dev->set_fault_hook(&injector);
  auto seg = dev->AllocateSegment();
  ASSERT_TRUE(seg.ok());
  const uint64_t base = dev->geometry().BaseOffset(*seg);
  std::string first(1024, 'a');
  ASSERT_TRUE(dev->Write(base, Slice(first), IoClass::kOther).ok());
  injector.TearNthDeviceWrite("dev0", 1, /*keep_bytes=*/100);
  std::string second(1024, 'b');
  Status torn = dev->Write(base, Slice(second), IoClass::kOther);
  EXPECT_EQ(torn.code(), StatusCode::kIoError) << torn.ToString();
  std::string readback(1024, 0);
  ASSERT_TRUE(dev->Read(base, readback.size(), readback.data(), IoClass::kOther).ok());
  EXPECT_EQ(readback.substr(0, 100), std::string(100, 'b'));
  EXPECT_EQ(readback.substr(100), std::string(924, 'a'));
  EXPECT_EQ(injector.stats().torn_writes, 1u);
}

TEST(DeviceFaultTest, FailNthDeviceReadReturnsIoError) {
  auto dev = MakeDevice("dev0");
  FaultInjector injector;
  dev->set_fault_hook(&injector);
  auto seg = dev->AllocateSegment();
  ASSERT_TRUE(seg.ok());
  std::string data(64, 'r');
  ASSERT_TRUE(dev->Write(dev->geometry().BaseOffset(*seg), Slice(data), IoClass::kOther).ok());
  injector.FailNthDeviceRead("dev0", 0);
  std::string out(64, 0);
  EXPECT_EQ(dev->Read(dev->geometry().BaseOffset(*seg), 64, out.data(), IoClass::kOther).code(),
            StatusCode::kIoError);
  EXPECT_TRUE(dev->Read(dev->geometry().BaseOffset(*seg), 64, out.data(), IoClass::kOther).ok());
  EXPECT_EQ(out, data);
}

TEST(DeviceFaultTest, CrashSnapshotCapturesPreWriteImage) {
  auto dev = MakeDevice("dev0");
  FaultInjector injector;
  dev->set_fault_hook(&injector);
  auto seg = dev->AllocateSegment();
  ASSERT_TRUE(seg.ok());
  const uint64_t base = dev->geometry().BaseOffset(*seg);
  std::string before(256, 'x');
  ASSERT_TRUE(dev->Write(base, Slice(before), IoClass::kOther).ok());
  injector.ArmCrashSnapshot("dev0", 1);
  std::string after(256, 'y');
  ASSERT_TRUE(dev->Write(base, Slice(after), IoClass::kOther).ok());  // snapshot, then applies
  std::unique_ptr<BlockDevice> snapshot = dev->TakeCrashSnapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(injector.stats().crash_snapshots, 1u);
  // The live device has the post-crash write; the snapshot has the pre-crash
  // image (clean allocation state: adopt before reading, like recovery does).
  std::string live(256, 0);
  ASSERT_TRUE(dev->Read(base, live.size(), live.data(), IoClass::kOther).ok());
  EXPECT_EQ(live, after);
  ASSERT_TRUE(snapshot->AdoptAllocated({*seg}).ok());
  std::string snap(256, 0);
  ASSERT_TRUE(snapshot->Read(base, snap.size(), snap.data(), IoClass::kOther).ok());
  EXPECT_EQ(snap, before);
}

TEST(DeviceFaultTest, KvStoreRecoversFromCrashPointSnapshot) {
  // A store checkpoints, keeps writing, and "the machine dies" at the next
  // device write: recovery from the crash-point snapshot sees exactly the
  // checkpointed state.
  auto dev = MakeDevice("dev0");
  FaultInjector injector;
  dev->set_fault_hook(&injector);
  auto store = KvStore::Create(dev.get(), SmallOptions());
  ASSERT_TRUE(store.ok());
  std::map<std::string, std::string> durable;
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), ValueFor(i)).ok());
    durable[Key(i)] = ValueFor(i);
  }
  ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
  auto checkpoint = (*store)->Checkpoint();
  ASSERT_TRUE(checkpoint.ok());
  // Arm: the very next device write crashes the machine (snapshot = on-flash
  // state at that instant).
  const uint64_t next_write = injector.stats().seen[static_cast<int>(FaultSite::kDeviceWrite)];
  injector.ArmCrashSnapshot("dev0", next_write);
  for (int i = 600; i < 1200; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), ValueFor(i)).ok());
  }
  ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
  std::unique_ptr<BlockDevice> snapshot = dev->TakeCrashSnapshot();
  ASSERT_NE(snapshot, nullptr);
  auto recovered = KvStore::Recover(snapshot.get(), SmallOptions(), *checkpoint);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  for (const auto& [key, value] : durable) {
    auto got = (*recovered)->Get(key);
    ASSERT_TRUE(got.ok()) << key << " " << got.status().ToString();
    EXPECT_EQ(*got, value);
  }
  // Nothing past the crash point leaked into the snapshot.
  EXPECT_TRUE((*recovered)->Get(Key(1199)).status().IsNotFound());
}

// --- RPC retry/backoff -------------------------------------------------------

class RpcFaultTest : public testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ServerEndpoint>(&fabric_, "server0", /*spinners=*/1,
                                               /*workers=*/1);
    server_->set_handler([](const MessageHeader& header, std::string payload, ReplyContext ctx) {
      const auto reply_type = static_cast<MessageType>(header.type + 1);
      ASSERT_TRUE(ctx.SendReply(reply_type, 0, payload).ok());
    });
    server_->Start();
    fabric_.set_fault_injector(&injector_);
  }

  void TearDown() override {
    fabric_.set_fault_injector(nullptr);
    server_->Stop();
  }

  Fabric fabric_;
  FaultInjector injector_;
  std::unique_ptr<ServerEndpoint> server_;
};

TEST_F(RpcFaultTest, RetryRecoversFromInjectedSendFault) {
  RpcClient client(&fabric_, "client0", server_.get());
  RpcRetryPolicy policy;
  policy.max_attempts = 3;
  client.set_retry_policy(policy);
  injector_.FailNth(FaultSite::kRpcSend, 0);
  auto reply = client.Call(MessageType::kPut, 0, "ping", 64);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->payload, "ping");
  EXPECT_EQ(Metric(client, "net.rpc_send_failures"), 1u);
  EXPECT_EQ(Metric(client, "net.rpc_attempts"), 2u);
  EXPECT_EQ(Metric(client, "net.rpc_exhausted"), 0u);
}

TEST_F(RpcFaultTest, FailFastWithoutRetryPolicy) {
  RpcClient client(&fabric_, "client0", server_.get());
  injector_.FailNth(FaultSite::kRpcSend, 0);
  auto reply = client.Call(MessageType::kPut, 0, "ping", 64);
  EXPECT_TRUE(reply.status().IsUnavailable());
  EXPECT_EQ(Metric(client, "net.rpc_exhausted"), 1u);
}

TEST_F(RpcFaultTest, PartitionExhaustsRetriesThenHealRestores) {
  RpcClient client(&fabric_, "client0", server_.get());
  RpcRetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ns = 1000;  // keep the test fast
  client.set_retry_policy(policy);
  injector_.Partition("client0", "server0");
  auto reply = client.Call(MessageType::kPut, 0, "lost", 64);
  EXPECT_TRUE(reply.status().IsUnavailable());
  EXPECT_EQ(Metric(client, "net.rpc_exhausted"), 1u);
  EXPECT_EQ(Metric(client, "net.rpc_attempts"), 3u);
  injector_.Heal("client0", "server0");
  auto healed = client.Call(MessageType::kPut, 0, "back", 64);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->payload, "back");
}

TEST_F(RpcFaultTest, FailedSendsDoNotLeakRingSlots) {
  // Every failed send must free its request+reply slots, or the rings fill.
  // A failed QP drops the write *after* slot allocation, unlike a partition.
  RpcClient client(&fabric_, "client0", server_.get(), /*buffer_size=*/4096);
  injector_.FailQueuePair(/*owner=*/"server0", /*writer=*/"client0");
  for (int i = 0; i < 200; ++i) {
    auto id = client.SendRequest(MessageType::kPut, 0, "xxxx", 64);
    EXPECT_TRUE(id.status().IsUnavailable()) << "iteration " << i << ": "
                                             << id.status().ToString();
  }
  injector_.RestoreQueuePair("server0", "client0");
  auto reply = client.Call(MessageType::kPut, 0, "after-storm", 64);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
}

// --- replication channel retries --------------------------------------------

struct SendIndexCluster {
  std::unique_ptr<Fabric> fabric = std::make_unique<Fabric>();
  std::unique_ptr<BlockDevice> primary_device;
  std::vector<std::unique_ptr<BlockDevice>> backup_devices;
  std::unique_ptr<PrimaryRegion> primary;
  std::vector<std::unique_ptr<SendIndexBackupRegion>> backups;
};

SendIndexCluster MakeSendIndexCluster(int num_backups, const KvStoreOptions& opts,
                                      int max_attempts = 1) {
  SendIndexCluster c;
  c.primary_device = MakeDevice("primary0-dev");
  auto primary = PrimaryRegion::Create(c.primary_device.get(), opts, ReplicationMode::kSendIndex);
  EXPECT_TRUE(primary.ok());
  c.primary = std::move(*primary);
  for (int i = 0; i < num_backups; ++i) {
    c.backup_devices.push_back(MakeDevice("backup" + std::to_string(i) + "-dev"));
    auto buffer =
        c.fabric->RegisterBuffer("backup" + std::to_string(i), "primary0", kSegmentSize);
    auto backup = SendIndexBackupRegion::Create(c.backup_devices.back().get(), opts, buffer);
    EXPECT_TRUE(backup.ok());
    c.backups.push_back(std::move(*backup));
    c.primary->AddBackup(std::make_unique<LocalBackupChannel>(
        c.fabric.get(), "primary0", buffer, c.backups.back().get(), max_attempts));
  }
  return c;
}

struct BuildIndexCluster {
  std::unique_ptr<Fabric> fabric = std::make_unique<Fabric>();
  std::unique_ptr<BlockDevice> primary_device;
  std::vector<std::unique_ptr<BlockDevice>> backup_devices;
  std::unique_ptr<PrimaryRegion> primary;
  std::vector<std::unique_ptr<BuildIndexBackupRegion>> backups;
};

BuildIndexCluster MakeBuildIndexCluster(int num_backups, const KvStoreOptions& opts,
                                        int max_attempts = 1) {
  BuildIndexCluster c;
  c.primary_device = MakeDevice("primary0-dev");
  auto primary = PrimaryRegion::Create(c.primary_device.get(), opts, ReplicationMode::kBuildIndex);
  EXPECT_TRUE(primary.ok());
  c.primary = std::move(*primary);
  for (int i = 0; i < num_backups; ++i) {
    c.backup_devices.push_back(MakeDevice("backup" + std::to_string(i) + "-dev"));
    auto buffer =
        c.fabric->RegisterBuffer("backup" + std::to_string(i), "primary0", kSegmentSize);
    auto backup = BuildIndexBackupRegion::Create(c.backup_devices.back().get(), opts, buffer);
    EXPECT_TRUE(backup.ok());
    c.backups.push_back(std::move(*backup));
    c.primary->AddBackup(std::make_unique<LocalBackupChannel>(
        c.fabric.get(), "primary0", buffer, c.backups.back().get(), max_attempts));
  }
  return c;
}

TEST(ChannelRetryTest, LostFlushAckIsRetriedAndDeduplicated) {
  auto cluster = MakeSendIndexCluster(1, SmallOptions(), /*max_attempts=*/3);
  FaultInjector injector;
  cluster.fabric->set_fault_injector(&injector);
  // Lose the first two flush acks: the channel re-sends, the backup detects
  // the duplicate deliveries, and nothing is applied twice.
  injector.FailNth(FaultSite::kReplFlushAck, 0);
  injector.FailNth(FaultSite::kReplFlushAck, 1);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    std::string key = Key(i % 800);
    std::string value = ValueFor(i);
    ASSERT_TRUE(cluster.primary->Put(key, value).ok()) << i;
    model[key] = value;
  }
  ASSERT_TRUE(cluster.primary->FlushL0().ok());
  EXPECT_EQ(injector.stats().injected[static_cast<int>(FaultSite::kReplFlushAck)], 2u);
  // Exactly one local segment per primary flush despite the re-deliveries.
  EXPECT_EQ(cluster.backups[0]->log_map().size(),
            cluster.primary->store()->value_log()->flushed_segments().size());
  for (const auto& [key, value] : model) {
    auto got = cluster.backups[0]->DebugGet(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, value);
  }
}

TEST(ChannelRetryTest, TransientFabricFaultsSurvivedByAppendRetry) {
  auto cluster = MakeSendIndexCluster(1, SmallOptions(), /*max_attempts=*/4);
  FaultInjector injector(/*seed=*/99);
  cluster.fabric->set_fault_injector(&injector);
  injector.FailWithProbability(FaultSite::kFabricWrite, 0.05);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i), ValueFor(i)).ok()) << i;
  }
  ASSERT_TRUE(cluster.primary->FlushL0().ok());
  EXPECT_GT(Metric(*cluster.primary, "repl.append_retries"), 0u);
  cluster.fabric->set_fault_injector(nullptr);
  for (int i = 0; i < 2000; i += 111) {
    auto got = cluster.backups[0]->DebugGet(Key(i));
    ASSERT_TRUE(got.ok()) << Key(i);
    EXPECT_EQ(*got, ValueFor(i));
  }
}

// --- crash-point matrix (§3.5) ----------------------------------------------
//
// Kill the primary at a given protocol step, promote the backup, and compare
// the promoted store's full contents against a non-faulty reference store
// holding exactly the acknowledged operations. Keys are unique per op, so the
// only permitted difference is the single operation in flight at the crash
// (it may or may not have reached the replica's RDMA buffer — §3.2 says an
// un-acked op makes no promise either way).

constexpr size_t kMatrixOps = 4000;

void VerifyPromotedAgainstReference(KvStore* promoted,
                                    const std::map<std::string, std::string>& acked,
                                    size_t crashed_op) {
  auto ref_device = MakeDevice();
  auto reference = KvStore::Create(ref_device.get(), SmallOptions());
  ASSERT_TRUE(reference.ok());
  for (const auto& [key, value] : acked) {
    ASSERT_TRUE((*reference)->Put(key, value).ok());
  }
  auto ref_scan = (*reference)->Scan(Slice(), kMatrixOps + 16);
  auto prom_scan = promoted->Scan(Slice(), kMatrixOps + 16);
  ASSERT_TRUE(ref_scan.ok()) << ref_scan.status().ToString();
  ASSERT_TRUE(prom_scan.ok()) << prom_scan.status().ToString();
  std::map<std::string, std::string> ref_map, prom_map;
  for (const auto& kv : *ref_scan) ref_map[kv.key] = kv.value;
  for (const auto& kv : *prom_scan) prom_map[kv.key] = kv.value;
  // Discount the ambiguous in-flight op if it survived into the replica.
  const std::string inflight = Key(crashed_op);
  auto it = prom_map.find(inflight);
  if (it != prom_map.end() && acked.count(inflight) == 0) {
    EXPECT_EQ(it->second, ValueFor(crashed_op)) << "in-flight op has wrong value";
    prom_map.erase(it);
  }
  EXPECT_EQ(prom_map.size(), ref_map.size());
  EXPECT_TRUE(prom_map == ref_map) << "promoted store diverges from reference";
}

// Drives puts until the crash surfaces; returns the acked model + crash op.
template <typename Cluster>
void DriveUntilCrash(Cluster* cluster, FaultInjector* injector,
                     std::map<std::string, std::string>* acked, size_t* crashed_op) {
  *crashed_op = kMatrixOps;
  for (size_t i = 0; i < kMatrixOps; ++i) {
    Status s = cluster->primary->Put(Key(i), ValueFor(i));
    if (!s.ok()) {
      EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
      *crashed_op = i;
      break;
    }
    (*acked)[Key(i)] = ValueFor(i);
  }
  ASSERT_TRUE(injector->crash_fired()) << "crash rule never fired within " << kMatrixOps
                                       << " ops";
  ASSERT_LT(*crashed_op, kMatrixOps) << "crash fired but no operation failed";
}

void RunSendIndexCrashCase(FaultSite site, uint64_t n, bool halt_after) {
  SCOPED_TRACE(std::string("site=") + FaultSiteName(site) + " n=" + std::to_string(n) +
               (halt_after ? " halt-after" : " crash-at"));
  auto cluster = MakeSendIndexCluster(1, SmallOptions());
  FaultInjector injector(/*seed=*/7);
  cluster.fabric->set_fault_injector(&injector);
  if (halt_after) {
    injector.HaltAfterNth(site, n, "primary0");
  } else {
    injector.CrashAtNth(site, n, "primary0");
  }
  std::map<std::string, std::string> acked;
  size_t crashed_op = 0;
  DriveUntilCrash(&cluster, &injector, &acked, &crashed_op);
  if (testing::Test::HasFatalFailure()) return;

  // The primary is dead; the backup takes over (§3.5).
  cluster.fabric->set_fault_injector(nullptr);
  auto promoted = cluster.backups[0]->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  VerifyPromotedAgainstReference(promoted->get(), acked, crashed_op);
}

void RunBuildIndexCrashCase(FaultSite site, uint64_t n, bool halt_after) {
  SCOPED_TRACE(std::string("site=") + FaultSiteName(site) + " n=" + std::to_string(n) +
               (halt_after ? " halt-after" : " crash-at"));
  auto cluster = MakeBuildIndexCluster(1, SmallOptions());
  FaultInjector injector(/*seed=*/7);
  cluster.fabric->set_fault_injector(&injector);
  if (halt_after) {
    injector.HaltAfterNth(site, n, "primary0");
  } else {
    injector.CrashAtNth(site, n, "primary0");
  }
  std::map<std::string, std::string> acked;
  size_t crashed_op = 0;
  DriveUntilCrash(&cluster, &injector, &acked, &crashed_op);
  if (testing::Test::HasFatalFailure()) return;

  cluster.fabric->set_fault_injector(nullptr);
  auto promoted = cluster.backups[0]->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  VerifyPromotedAgainstReference(promoted->get(), acked, crashed_op);
}

// Step 1: the log segment was written and sealed locally, but the flush
// message died with the primary — the backup recovers those records from its
// RDMA buffer image.
TEST(CrashMatrixTest, SendIndex_FlushMessageLost) {
  RunSendIndexCrashCase(FaultSite::kReplFlushSend, 2, /*halt_after=*/false);
}

// Step 2: the backup processed the flush but the ack died with the primary.
TEST(CrashMatrixTest, SendIndex_FlushAckLost) {
  RunSendIndexCrashCase(FaultSite::kReplFlushAck, 2, /*halt_after=*/false);
}

// Step 3: the ack was received, then the primary died.
TEST(CrashMatrixTest, SendIndex_DeathAfterAckReceived) {
  RunSendIndexCrashCase(FaultSite::kReplFlushAck, 2, /*halt_after=*/true);
}

// Step 4: mid-compaction death while shipping an index segment — the backup
// aborts the half-shipped compaction and serves from its previous levels.
TEST(CrashMatrixTest, SendIndex_DeathWhileShippingIndexSegment) {
  RunSendIndexCrashCase(FaultSite::kReplIndexSegmentSend, 3, /*halt_after=*/false);
}

// Step 5: every segment rewritten, but the compaction-end (root install) was
// lost with the primary.
TEST(CrashMatrixTest, SendIndex_RewriteDoneCompactionEndLost) {
  RunSendIndexCrashCase(FaultSite::kReplCompactionEndSend, 1, /*halt_after=*/false);
}

// Step 6: the full shipment completed (end acked), then the primary died.
TEST(CrashMatrixTest, SendIndex_DeathAfterCompactionInstalled) {
  RunSendIndexCrashCase(FaultSite::kReplCompactionEndAck, 1, /*halt_after=*/true);
}

TEST(CrashMatrixTest, BuildIndex_FlushMessageLost) {
  RunBuildIndexCrashCase(FaultSite::kReplFlushSend, 2, /*halt_after=*/false);
}

TEST(CrashMatrixTest, BuildIndex_FlushAckLost) {
  RunBuildIndexCrashCase(FaultSite::kReplFlushAck, 2, /*halt_after=*/false);
}

TEST(CrashMatrixTest, BuildIndex_DeathAfterAckReceived) {
  RunBuildIndexCrashCase(FaultSite::kReplFlushAck, 2, /*halt_after=*/true);
}

}  // namespace
}  // namespace tebis
