// The transport-free request-serving core. Two hosts over one telemetry
// plane — "a" with region 1 as primary, "b" with its backup — wired by an
// in-process channel into b's fenced Handle, the way SimCluster wires them.
// The fence answers WrongRegion for every request the handle cannot serve in
// its current state or role, and a sampled op leaves the same observability
// trail the RPC server's does.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/region_host.h"
#include "src/lsm/format.h"
#include "src/net/fabric.h"
#include "src/replication/local_backup_channel.h"
#include "src/storage/block_device.h"
#include "src/telemetry/request_trace.h"
#include "src/telemetry/telemetry.h"

namespace tebis {
namespace {

constexpr uint32_t kRegion = 1;

std::unique_ptr<BlockDevice> MakeDevice(const std::string& name) {
  BlockDeviceOptions options;
  options.name = name;
  options.segment_size = 1 << 16;
  options.max_segments = 1 << 12;
  auto device = BlockDevice::Create(options);
  EXPECT_TRUE(device.ok());
  return std::move(*device);
}

struct TwoHosts {
  TwoHosts() {
    KvStoreOptions kv;
    kv.l0_max_entries = 128;
    primary_host = std::make_unique<RegionHost>("a", &fabric, &telemetry, device_a.get(),
                                                /*compaction_pool=*/nullptr, kv,
                                                ReplicationMode::kSendIndex);
    backup_host = std::make_unique<RegionHost>("b", &fabric, &telemetry, device_b.get(),
                                               /*compaction_pool=*/nullptr, kv,
                                               ReplicationMode::kSendIndex);
    EXPECT_TRUE(primary_host->OpenPrimary(kRegion, /*epoch=*/1).ok());
    EXPECT_TRUE(backup_host->OpenBackup(kRegion, /*epoch=*/1, /*writer=*/"a").ok());
    auto buffer = backup_host->ReplicationBuffer(kRegion);
    EXPECT_TRUE(buffer.ok());
    port = std::make_unique<RegionHost::ReplicationPort>(backup_host.get(), kRegion);
    auto primary = primary_host->Lock(kRegion, RegionHost::Role::kPrimary);
    EXPECT_TRUE(primary.ok());
    auto channel = std::make_unique<LocalBackupChannel>(&fabric, "a", *buffer, port.get());
    channel->set_epoch(1);
    (*primary)->primary->AddBackup(std::move(channel));
  }

  Fabric fabric;
  Telemetry telemetry{/*trace_capacity=*/256};
  std::unique_ptr<BlockDevice> device_a = MakeDevice("a");
  std::unique_ptr<BlockDevice> device_b = MakeDevice("b");
  std::unique_ptr<RegionHost::ReplicationPort> port;
  // Declared last: destroyed first, while the port and devices still exist.
  std::unique_ptr<RegionHost> backup_host;
  std::unique_ptr<RegionHost> primary_host;
};

TEST(RegionHostTest, ClosedHandleAnswersWrongRegion) {
  TwoHosts hosts;
  ASSERT_TRUE(hosts.primary_host->Put(kRegion, "k", "v", kNoTrace, nullptr).ok());
  ASSERT_TRUE(hosts.primary_host->Close(kRegion).ok());
  EXPECT_TRUE(hosts.primary_host->Put(kRegion, "k", "v", kNoTrace, nullptr).IsWrongRegion());
  EXPECT_TRUE(hosts.primary_host->Get(kRegion, "k", kNoTrace).status().IsWrongRegion());
  ASSERT_TRUE(hosts.backup_host->Close(kRegion).ok());
  uint64_t visible = 0;
  EXPECT_TRUE(
      hosts.backup_host->ReplicaGet(kRegion, "k", 0, 0, &visible).status().IsWrongRegion());
  EXPECT_TRUE(hosts.backup_host->Handle(kRegion, TrimLogMsg{}).IsWrongRegion());
  // The admin side sees the same fence as NotFound.
  EXPECT_TRUE(hosts.primary_host->Lock(kRegion, RegionHost::Role::kAny).status().IsNotFound());
}

TEST(RegionHostTest, KvOpOnBackupHandleAnswersWrongRegion) {
  TwoHosts hosts;
  std::vector<Status> statuses;
  EXPECT_TRUE(hosts.backup_host->Put(kRegion, "k", "v", kNoTrace, nullptr).IsWrongRegion());
  EXPECT_TRUE(hosts.backup_host->Delete(kRegion, "k", kNoTrace, nullptr).IsWrongRegion());
  EXPECT_TRUE(hosts.backup_host->Get(kRegion, "k", kNoTrace).status().IsWrongRegion());
  EXPECT_TRUE(hosts.backup_host->Scan(kRegion, "k", 10, kNoTrace).status().IsWrongRegion());
  EXPECT_TRUE(hosts.backup_host->WriteBatch(kRegion, {{"k", "v", false}}, &statuses, kNoTrace,
                                            nullptr)
                  .IsWrongRegion());
  // A region the host does not hold at all gets the same answer.
  EXPECT_TRUE(hosts.primary_host->Put(99, "k", "v", kNoTrace, nullptr).IsWrongRegion());
}

TEST(RegionHostTest, ReplicaReadOnPrimaryHandleAnswersWrongRegion) {
  TwoHosts hosts;
  ASSERT_TRUE(hosts.primary_host->Put(kRegion, "k", "v", kNoTrace, nullptr).ok());
  uint64_t visible = 0;
  EXPECT_TRUE(
      hosts.primary_host->ReplicaGet(kRegion, "k", 0, 0, &visible).status().IsWrongRegion());
  EXPECT_TRUE(hosts.primary_host->ReplicaScan(kRegion, "k", 10, 0, 0, &visible)
                  .status()
                  .IsWrongRegion());
  // The backup serves it: the put's record sits in its RDMA buffer.
  auto value = hosts.backup_host->ReplicaGet(kRegion, "k", 0, 0, &visible);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, "v");
  // Replication traffic addressed to a primary is refused, not applied.
  EXPECT_TRUE(hosts.primary_host->Handle(kRegion, TrimLogMsg{}).IsFailedPrecondition());
}

TEST(RegionHostTest, WriteCarriesTheCommitTokenItReached) {
  TwoHosts hosts;
  RegionHost::CommitToken first, second;
  ASSERT_TRUE(hosts.primary_host->Put(kRegion, "k1", "v", kNoTrace, &first).ok());
  ASSERT_TRUE(hosts.primary_host->Delete(kRegion, "k1", kNoTrace, &second).ok());
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(second.epoch, 1u);
  EXPECT_GT(second.seq, first.seq);
}

TEST(RegionHostTest, SampledPutRecordsSpanExemplarAndSlowOpWithBackupCommit) {
  TwoHosts hosts;
  SlowOpPolicy policy;
  policy.put_ns = 1;  // every put is "slow"
  hosts.telemetry.ConfigureSlowOps(policy);
  const TraceId trace = MakeRequestTraceId(/*source_hash=*/7, /*seq=*/1);
  ASSERT_TRUE(hosts.primary_host->Put(kRegion, "traced-key", "v", trace, nullptr).ok());

  int primary_apply = 0;
  for (const SpanRecord& span : hosts.telemetry.traces()->Snapshot()) {
    if (span.trace == trace && std::string(span.name) == "primary_apply") {
      ++primary_apply;
      EXPECT_EQ(span.node, "a");
    }
  }
  EXPECT_EQ(primary_apply, 1);

  // The exemplar sits on the primary node's histogram.
  const MetricsSnapshot snap = hosts.telemetry.Snapshot();
  bool exemplar = false;
  for (const MetricSample& sample : snap.samples()) {
    if (sample.name != "trace.request_latency_ns") {
      continue;
    }
    for (const auto& e : sample.exemplars) {
      if (e.trace == trace) {
        exemplar = true;
        EXPECT_TRUE(sample.HasLabel("node", "a"));
        EXPECT_TRUE(sample.HasLabel("op", "put"));
      }
    }
  }
  EXPECT_TRUE(exemplar);

  std::vector<SlowOpRecord> records = hosts.telemetry.slow_ops()->Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trace, trace);
  EXPECT_EQ(records[0].region, kRegion);
  EXPECT_GT(records[0].stages.engine_ns, 0u);
  // The backup host's commit listener fed the writer's stage breakdown.
  EXPECT_GT(records[0].stages.backup_commit_ns, 0u);
}

// A batch whose replication failed is still observed — it is the outlier the
// slow-op log is for — while a failed put is not.
TEST(RegionHostTest, FailedBatchIsObservedFailedPutIsNot) {
  TwoHosts hosts;
  SlowOpPolicy policy;
  policy.put_ns = 1;
  policy.batch_ns = 1;
  hosts.telemetry.ConfigureSlowOps(policy);
  // A newer generation fences the backup's buffer: the primary's epoch-1
  // writes into it are refused.
  auto buffer = hosts.backup_host->ReplicationBuffer(kRegion);
  ASSERT_TRUE(buffer.ok());
  (void)(*buffer)->FenceAndSnapshot(/*min_epoch=*/2);

  EXPECT_FALSE(hosts.primary_host->Put(kRegion, "k", "v", kNoTrace, nullptr).ok());
  EXPECT_TRUE(hosts.telemetry.slow_ops()->Snapshot().empty());
  std::vector<Status> statuses;
  EXPECT_FALSE(hosts.primary_host
                   ->WriteBatch(kRegion, {{"k", "v", false}}, &statuses, kNoTrace, nullptr)
                   .ok());
  std::vector<SlowOpRecord> records = hosts.telemetry.slow_ops()->Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, SlowOpType::kBatch);
}

// The backup mirrors the primary's one log tail in a buffer of exactly one
// segment. A tail filled to the last byte seals a full segment: the backup
// writes the pad marker into its buffer's last four bytes and persists the
// whole buffer. The records appended after that seal land at the buffer's
// start, and a promotion replays them over the persisted segment, so every
// acknowledged record survives.
TEST(RegionHostTest, OneSegmentBufferSealsAFullSegmentAndPromotes) {
  TwoHosts hosts;
  const uint64_t segment_size = hosts.device_b->segment_size();
  auto buffer = hosts.backup_host->ReplicationBuffer(kRegion);
  ASSERT_TRUE(buffer.ok());
  EXPECT_EQ((*buffer)->size(), segment_size);

  auto key = [](int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%06d", i);
    return std::string(buf);
  };
  std::map<std::string, std::string> acked;
  int next = 0;
  auto put = [&](size_t value_size) {
    const std::string k = key(next++);
    const std::string v(value_size, static_cast<char>('a' + next % 26));
    ASSERT_TRUE(hosts.primary_host->Put(kRegion, k, v, kNoTrace, nullptr).ok()) << k;
    acked[k] = v;
  };
  // Fill the tail to segment_size - 4 bytes, the most it can hold: the last
  // record takes whatever the fixed-size ones leave. Fewer records than
  // l0_max_entries, so no spill seals the tail early.
  constexpr size_t kValueSize = 1000;
  const size_t key_size = key(0).size();
  const uint64_t fill = segment_size - sizeof(kPadMarker);
  uint64_t used = 0;
  while (fill - used >= 2 * LogRecordSize(key_size, kValueSize)) {
    put(kValueSize);
    used += LogRecordSize(key_size, kValueSize);
  }
  put(fill - used - LogRecordSize(key_size, 0));
  {
    auto primary = hosts.primary_host->Lock(kRegion, RegionHost::Role::kPrimary);
    ASSERT_TRUE(primary.ok());
    EXPECT_EQ((*primary)->primary->store()->value_log()->tail_used(), fill);
  }
  EXPECT_EQ(hosts.device_b->stats().WriteBytes(IoClass::kLogFlush), 0u);
  // The next record does not fit: the seal writes exactly one segment on
  // both replicas, then the record opens the next tail.
  put(kValueSize);
  EXPECT_EQ(hosts.device_a->stats().WriteBytes(IoClass::kLogFlush), segment_size);
  EXPECT_EQ(hosts.device_b->stats().WriteBytes(IoClass::kLogFlush), segment_size);
  put(kValueSize);
  put(kValueSize);

  // Promote the backup as RegionServer does: fence and snapshot the buffer,
  // wrap the engine as a primary, then replay the buffer image through it.
  std::string image;
  {
    auto backup = hosts.backup_host->Lock(kRegion, RegionHost::Role::kBackup);
    ASSERT_TRUE(backup.ok());
    image = (*backup)->replication_buffer->FenceAndSnapshot(/*min_epoch=*/2);
    auto store = (*backup)->backup->Promote(/*replay_rdma_buffer=*/false);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(hosts.backup_host
                    ->BecomePrimary(backup->handle.get(), kRegion, std::move(*store), 2)
                    .ok());
  }
  {
    auto promoted = hosts.backup_host->Lock(kRegion, RegionHost::Role::kPrimary);
    ASSERT_TRUE(promoted.ok());
    ASSERT_TRUE((*promoted)->primary->ReplayBufferImage(image).ok());
  }
  for (const auto& [k, v] : acked) {
    auto got = hosts.backup_host->Get(kRegion, k, kNoTrace);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    EXPECT_EQ(*got, v) << k;
  }
}

}  // namespace
}  // namespace tebis
