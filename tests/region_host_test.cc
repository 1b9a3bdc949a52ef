// The transport-free request-serving core. Two hosts over one telemetry
// plane — "a" with region 1 as primary, "b" with its backup — wired by an
// in-process channel into b's fenced Handle, the way SimCluster wires them.
// The fence answers WrongRegion for every request the handle cannot serve in
// its current state or role, and a sampled op leaves the same observability
// trail the RPC server's does.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/region_host.h"
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

}  // namespace
}  // namespace tebis
