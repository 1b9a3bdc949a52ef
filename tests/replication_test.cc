#include <gtest/gtest.h>

#include <map>
#include <set>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/lsm/btree_node.h"
#include "src/lsm/index_codec.h"
#include "src/net/fabric.h"
#include "src/replication/build_index_backup.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/replication_wire.h"
#include "src/replication/segment_map.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"
#include "tests/metric_reader.h"

namespace tebis {
namespace {

constexpr uint64_t kSegmentSize = 1 << 16;  // 64 KB segments for tests

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

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", static_cast<unsigned long long>(i));
  return buf;
}

// --- SegmentMap -----------------------------------------------------------

TEST(SegmentMapTest, InsertLookup) {
  SegmentMap map;
  ASSERT_TRUE(map.Insert(10, 100).ok());
  ASSERT_TRUE(map.Insert(11, 101).ok());
  EXPECT_EQ(map.Insert(10, 999).code(), StatusCode::kAlreadyExists);
  auto v = map.Lookup(10);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 100u);
  EXPECT_TRUE(map.Lookup(12).status().IsNotFound());
  EXPECT_EQ(map.MemoryBytes(), 32u);
}

TEST(SegmentMapTest, GetOrReserveAllocatesOnce) {
  SegmentMap map;
  int allocations = 0;
  auto alloc = [&]() -> StatusOr<SegmentId> { return SegmentId(500 + allocations++); };
  auto a = map.GetOrReserve(7, alloc);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, 500u);
  auto b = map.GetOrReserve(7, alloc);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 500u);
  EXPECT_EQ(allocations, 1);
}

TEST(SegmentMapTest, SerializeRoundTrip) {
  SegmentMap map;
  ASSERT_TRUE(map.Insert(1, 10).ok());
  ASSERT_TRUE(map.Insert(2, 20).ok());
  WireWriter w;
  map.Serialize(&w);
  WireReader r(w.slice());
  auto decoded = SegmentMap::Deserialize(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 2u);
  EXPECT_EQ(*decoded->Lookup(2), 20u);
}

TEST(SegmentMapTest, RekeyForNewPrimary) {
  // Old primary segments {1,2,3}; new primary (promoted backup) has them at
  // {10,20,30}; this backup has them at {100,200,300}.
  SegmentMap new_primary;
  ASSERT_TRUE(new_primary.Insert(1, 10).ok());
  ASSERT_TRUE(new_primary.Insert(2, 20).ok());
  ASSERT_TRUE(new_primary.Insert(3, 30).ok());
  SegmentMap mine;
  ASSERT_TRUE(mine.Insert(1, 100).ok());
  ASSERT_TRUE(mine.Insert(2, 200).ok());
  ASSERT_TRUE(mine.Insert(3, 300).ok());
  auto rekeyed = mine.RekeyForNewPrimary(new_primary);
  ASSERT_TRUE(rekeyed.ok());
  EXPECT_EQ(*rekeyed->Lookup(10), 100u);
  EXPECT_EQ(*rekeyed->Lookup(20), 200u);
  EXPECT_EQ(*rekeyed->Lookup(30), 300u);
}

// --- replication wire codecs ------------------------------------------------

TEST(ReplicationWireTest, EveryMessageRoundTrips) {
  const std::string data(1000, 'n');
  BuiltTree tree;
  tree.root_offset = 0x123456;
  tree.height = 3;
  tree.num_entries = 777;
  tree.bytes_written = 4096;
  tree.segments = {5, 6, 7};
  tree.seg_checksums = {{11, 100}, {12, 200}, {13, 300}};
  // A one-leaf index segment of three 13-byte keys travels encoded: a 2 B
  // size, the leaf's tag and count, 18 B for the first entry (whole key, 1 B
  // offset), then 6 B for each same-size neighbour sharing 12 bytes (2 B
  // offset).
  std::string leaf_segment(kDefaultNodeSize, 0);
  LeafNodeBuilder leaf(leaf_segment.data(), kDefaultNodeSize);
  for (int i = 1; i <= 3; ++i) {
    leaf.Add(Key(i), 100 * i, /*tombstone=*/false, KeyHash(Key(i)));
  }
  leaf.Finish();
  const std::string wire = EncodeIndexSegment(leaf_segment, kDefaultNodeSize);
  ASSERT_EQ(wire.size(), 34u);
  const uint32_t crc = Crc32c(leaf_segment.data(), leaf_segment.size());
  // Each message next to its encoded size: every field is always on the wire.
  const std::vector<std::pair<ReplicationMessage, size_t>> cases = {
      {FlushLogMsg{1, 42, 900, 4097}, 32},
      {CompactionBeginMsg{2, 9, 1, 2, 4, 17}, 36},
      {IndexSegmentMsg{3, 4, 2, 1, 77, Slice(wire), 5, crc}, 78},
      {FilterBlockMsg{4, 4, 2, Slice(data), 5}, 28 + data.size()},
      {CompactionEndMsg{5, 9, 1, 2, tree, 6}, 110},
      {TrimLogMsg{6, 12}, 12},
      {SetReplayStartMsg{7, 31}, 16},
  };
  std::set<size_t> covered;
  for (const auto& [msg, size] : cases) {
    const std::string encoded = EncodeReplicationMessage(msg);
    EXPECT_EQ(encoded.size(), size) << MessageTypeName(ReplicationMessageType(msg));
    auto decoded = DecodeReplicationMessage(ReplicationMessageType(msg), encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->index(), msg.index());
    EXPECT_EQ(ReplicationMessageEpoch(*decoded), ReplicationMessageEpoch(msg));
    // The encoding covers every field, so equal re-encodings mean every field
    // survived the round trip.
    EXPECT_EQ(EncodeReplicationMessage(*decoded), encoded);
    covered.insert(msg.index());
  }
  EXPECT_EQ(covered.size(), std::variant_size_v<ReplicationMessage>);
  // Every tree carries one checksum per segment: a CompactionEnd listing
  // none, or one too few, is corrupt.
  for (const size_t count : {size_t{0}, tree.segments.size() - 1}) {
    CompactionEndMsg short_list{5, 9, 1, 2, tree, 6};
    short_list.tree.seg_checksums.resize(count);
    auto decoded =
        DecodeReplicationMessage(MessageType::kCompactionEnd, EncodeReplicationMessage(short_list));
    ASSERT_FALSE(decoded.ok()) << count << " checksums accepted";
    EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
  }
  // Only replication requests decode.
  const std::string segment_bytes = EncodeReplicationMessage(cases[2].first);
  EXPECT_FALSE(DecodeReplicationMessage(MessageType::kFlushLogReply, segment_bytes).ok());
}

TEST(ReplicationWireTest, CompactionEndRoundTrip) {
  CompactionEndMsg msg{};
  msg.compaction_id = 9;
  msg.src_level = 1;
  msg.dst_level = 2;
  msg.tree.root_offset = 0x123456;
  msg.tree.height = 3;
  msg.tree.num_entries = 777;
  msg.tree.bytes_written = 4096;
  msg.tree.segments = {5, 6, 7};
  msg.tree.seg_checksums = {{11, 100}, {12, 200}, {13, 300}};
  const std::string encoded = EncodeReplicationMessage(msg);
  auto decoded = DecodeReplicationMessage(MessageType::kCompactionEnd, encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto& out = std::get<CompactionEndMsg>(*decoded);
  EXPECT_EQ(out.compaction_id, 9u);
  EXPECT_EQ(out.tree.root_offset, 0x123456u);
  EXPECT_EQ(out.tree.height, 3u);
  EXPECT_EQ(out.tree.segments, (std::vector<SegmentId>{5, 6, 7}));
  ASSERT_EQ(out.tree.seg_checksums.size(), 3u);
  EXPECT_EQ(out.tree.seg_checksums[2].length, 300u);
}

TEST(ReplicationWireTest, IndexSegmentRoundTrip) {
  const std::string data(1000, 'n');
  const uint32_t crc = Crc32c(data.data(), data.size());
  IndexSegmentMsg msg{/*epoch=*/1, 4, 2, 0, 77, Slice(data), 5, crc};
  const std::string encoded = EncodeReplicationMessage(msg);
  auto decoded = DecodeReplicationMessage(MessageType::kIndexSegment, encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto& out = std::get<IndexSegmentMsg>(*decoded);
  EXPECT_EQ(out.compaction_id, 4u);
  EXPECT_EQ(out.dst_level, 2u);
  EXPECT_EQ(out.primary_segment, 77u);
  EXPECT_EQ(out.data.ToString(), data);
  EXPECT_EQ(out.payload_crc, crc);
}

// --- end-to-end replication fixtures --------------------------------------------

struct SendIndexCluster {
  std::unique_ptr<Fabric> fabric = std::make_unique<Fabric>();
  std::unique_ptr<BlockDevice> primary_device;
  std::vector<std::unique_ptr<BlockDevice>> backup_devices;
  std::unique_ptr<PrimaryRegion> primary;
  std::vector<std::unique_ptr<SendIndexBackupRegion>> backups;
  std::vector<std::shared_ptr<RegisteredBuffer>> buffers;
};

SendIndexCluster MakeSendIndexCluster(int num_backups, KvStoreOptions opts) {
  SendIndexCluster c;
  c.primary_device = MakeDevice();
  auto primary = PrimaryRegion::Create(c.primary_device.get(), opts, ReplicationMode::kSendIndex);
  EXPECT_TRUE(primary.ok());
  c.primary = std::move(*primary);
  for (int i = 0; i < num_backups; ++i) {
    c.backup_devices.push_back(MakeDevice());
    auto buffer =
        c.fabric->RegisterBuffer("backup" + std::to_string(i), "primary0", kSegmentSize);
    c.buffers.push_back(buffer);
    auto backup = SendIndexBackupRegion::Create(c.backup_devices.back().get(), opts, buffer);
    EXPECT_TRUE(backup.ok());
    c.backups.push_back(std::move(*backup));
    c.primary->AddBackup(std::make_unique<LocalBackupChannel>(
        c.fabric.get(), "primary0", buffer, c.backups.back().get()));
  }
  return c;
}

struct BuildIndexCluster {
  std::unique_ptr<Fabric> fabric = std::make_unique<Fabric>();
  std::unique_ptr<BlockDevice> primary_device;
  std::vector<std::unique_ptr<BlockDevice>> backup_devices;
  std::unique_ptr<PrimaryRegion> primary;
  std::vector<std::unique_ptr<BuildIndexBackupRegion>> backups;
  std::vector<std::shared_ptr<RegisteredBuffer>> buffers;
};

BuildIndexCluster MakeBuildIndexCluster(int num_backups, KvStoreOptions opts) {
  BuildIndexCluster c;
  c.primary_device = MakeDevice();
  auto primary = PrimaryRegion::Create(c.primary_device.get(), opts, ReplicationMode::kBuildIndex);
  EXPECT_TRUE(primary.ok());
  c.primary = std::move(*primary);
  for (int i = 0; i < num_backups; ++i) {
    c.backup_devices.push_back(MakeDevice());
    auto buffer =
        c.fabric->RegisterBuffer("backup" + std::to_string(i), "primary0", kSegmentSize);
    c.buffers.push_back(buffer);
    auto backup = BuildIndexBackupRegion::Create(c.backup_devices.back().get(), opts, buffer);
    EXPECT_TRUE(backup.ok());
    c.backups.push_back(std::move(*backup));
    c.primary->AddBackup(std::make_unique<LocalBackupChannel>(
        c.fabric.get(), "primary0", buffer, c.backups.back().get()));
  }
  return c;
}

// --- leaf offset space -------------------------------------------------------

// Leaf entries hold 48-bit log offsets. A primary store or either backup
// engine on a device whose segment_size x max_segments exceeds 2^48 bytes is
// refused when it is created, from the configuration alone; a device of
// exactly 2^48 bytes is accepted.
TEST(LeafOffsetSpaceTest, DeviceBeyond48BitOffsetsIsRefused) {
  auto device_of = [](uint64_t max_segments) {
    BlockDeviceOptions opts;
    opts.segment_size = kSegmentSize;
    opts.max_segments = max_segments;
    auto dev = BlockDevice::Create(opts);
    EXPECT_TRUE(dev.ok());
    return std::move(*dev);
  };
  const uint64_t fits = (1ull << 48) / kSegmentSize;
  Fabric fabric;
  auto buffer = fabric.RegisterBuffer("backup0", "primary0", kSegmentSize);

  auto edge = device_of(fits);
  EXPECT_TRUE(KvStore::Create(edge.get(), SmallOptions()).ok());
  EXPECT_TRUE(SendIndexBackupRegion::Create(edge.get(), SmallOptions(), buffer).ok());

  auto big = device_of(fits + 1);
  auto store = KvStore::Create(big.get(), SmallOptions());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument) << store.status().ToString();
  std::vector<BuiltTree> levels(SmallOptions().max_levels + 1);
  auto log = ValueLog::Create(big.get());
  ASSERT_TRUE(log.ok());
  auto parts = KvStore::CreateFromParts(big.get(), SmallOptions(), std::move(*log), levels);
  EXPECT_EQ(parts.status().code(), StatusCode::kInvalidArgument);
  auto send_index = SendIndexBackupRegion::Create(big.get(), SmallOptions(), buffer);
  EXPECT_EQ(send_index.status().code(), StatusCode::kInvalidArgument);
  auto build_index = BuildIndexBackupRegion::Create(big.get(), SmallOptions(), buffer);
  EXPECT_EQ(build_index.status().code(), StatusCode::kInvalidArgument);
  // Nothing was allocated for the refused engines beyond the probe log.
  EXPECT_LE(big->AllocatedSegments(), 1u);
}

// --- Send-Index end-to-end --------------------------------------------------------

TEST(SendIndexTest, BackupIndexMatchesPrimaryAfterCompactions) {
  auto cluster = MakeSendIndexCluster(1, SmallOptions());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    std::string key = Key(i % 800);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster.primary->Put(key, value).ok());
    model[key] = value;
  }
  // Push everything into device levels so the backup's (L0-less) view covers
  // all keys.
  ASSERT_TRUE(cluster.primary->FlushL0().ok());
  ASSERT_GT(Metric(*cluster.primary->store(), "kv.compactions"), 0u);

  for (const auto& [key, value] : model) {
    auto got = cluster.backups[0]->DebugGet(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, value) << key;
  }
  // Absent keys are absent on the backup too.
  EXPECT_TRUE(cluster.backups[0]->DebugGet("nonexistent-key").status().IsNotFound());
}

// Forwards control messages to a backup, counting the offsets each accepted
// index segment carries: its leaf entries plus its index children.
class ShippedOffsetCounter final : public ReplicationMessageHandler {
 public:
  Status Handle(const ReplicationMessage& msg) override {
    Status status = backup->Handle(msg);
    const auto* segment = std::get_if<IndexSegmentMsg>(&msg);
    if (status.ok() && segment != nullptr) {
      std::string bytes;
      EXPECT_TRUE(DecodeIndexSegment(segment->data, kDefaultNodeSize, kSegmentSize, &bytes).ok());
      for (size_t off = 0; off < bytes.size(); off += kDefaultNodeSize) {
        const LeafNodeView leaf(bytes.data() + off, kDefaultNodeSize);
        const IndexNodeView index(bytes.data() + off, kDefaultNodeSize);
        offsets += leaf.IsValid() ? leaf.num_entries() : index.IsValid() ? index.num_entries() : 0;
      }
    }
    return status;
  }

  ReplicationMessageHandler* backup = nullptr;
  uint64_t offsets = 0;
};

TEST(SendIndexTest, BackupDoesNoCompactionReads) {
  ShippedOffsetCounter shipped;
  auto cluster = MakeSendIndexCluster(0, SmallOptions());
  cluster.backup_devices.push_back(MakeDevice());
  auto buffer = cluster.fabric->RegisterBuffer("backup0", "primary0", kSegmentSize);
  auto backup =
      SendIndexBackupRegion::Create(cluster.backup_devices.back().get(), SmallOptions(), buffer);
  ASSERT_TRUE(backup.ok());
  cluster.backups.push_back(std::move(*backup));
  shipped.backup = cluster.backups[0].get();
  cluster.primary->AddBackup(std::make_unique<LocalBackupChannel>(
      cluster.fabric.get(), "primary0", buffer, &shipped));

  // One shipped compaction: every shipped offset is rewritten once.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i), "value-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster.primary->FlushL0().ok());
  ASSERT_EQ(Metric(*cluster.primary->store(), "kv.compactions"), 1u);
  EXPECT_GT(shipped.offsets, 200u);  // the leaf entries and the root's children
  EXPECT_EQ(Metric(*cluster.backups[0], "backup.offsets_rewritten"), shipped.offsets);

  for (int i = 200; i < 3000; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i), "value-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster.primary->FlushL0().ok());

  const IoStats& primary_io = cluster.primary_device->stats();
  const IoStats& backup_io = cluster.backup_devices[0]->stats();
  // The paper's central claim: the primary pays compaction reads, the backup
  // pays none — it only rewrites.
  EXPECT_GT(primary_io.ReadBytes(IoClass::kCompactionRead), 0u);
  EXPECT_EQ(backup_io.ReadBytes(IoClass::kCompactionRead), 0u);
  EXPECT_GT(backup_io.WriteBytes(IoClass::kIndexRewrite), 0u);
  EXPECT_EQ(backup_io.WriteBytes(IoClass::kCompactionWrite), 0u);
  // And the backup keeps no L0.
  EXPECT_EQ(cluster.backups[0]->l0_memory_bytes(), 0u);
  EXPECT_GT(Metric(*cluster.backups[0], "backup.segments_rewritten"), 0u);
  EXPECT_EQ(Metric(*cluster.backups[0], "backup.offsets_rewritten"), shipped.offsets);
}

// Scans are lookups on both sides: the primary's plain and prefix scans read
// its levels through the page cache, the backup's replica scan reads its
// shipped levels, and neither charges the traffic to compaction.
TEST(SendIndexTest, ScansChargeLevelReadsToLookups) {
  KvStoreOptions opts = SmallOptions();
  opts.cache_bytes = 1 << 20;
  auto cluster = MakeSendIndexCluster(1, opts);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i), "value-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster.primary->FlushL0().ok());
  ASSERT_TRUE(cluster.primary->store()->ForceFullCompaction().ok());

  const IoStats& primary_io = cluster.primary_device->stats();
  const IoStats& backup_io = cluster.backup_devices[0]->stats();
  const uint64_t primary_compaction = primary_io.ReadBytes(IoClass::kCompactionRead);
  const uint64_t primary_lookup = primary_io.ReadBytes(IoClass::kLookup);
  const uint64_t primary_misses = primary_io.CacheMisses();
  const uint64_t backup_lookup = backup_io.ReadBytes(IoClass::kLookup);

  auto primary_scan = cluster.primary->Scan(Key(1000), 500);
  ASSERT_TRUE(primary_scan.ok()) << primary_scan.status().ToString();
  EXPECT_EQ(primary_scan->size(), 500u);
  auto prefix_scan = cluster.primary->store()->ScanPrefix("key00000010", 20);
  ASSERT_TRUE(prefix_scan.ok()) << prefix_scan.status().ToString();
  EXPECT_EQ(prefix_scan->size(), 20u);
  auto backup_scan = cluster.backups[0]->Scan(Key(1000), 500, 0, 0, nullptr);
  ASSERT_TRUE(backup_scan.ok()) << backup_scan.status().ToString();
  EXPECT_EQ(backup_scan->size(), 500u);

  EXPECT_EQ(primary_io.ReadBytes(IoClass::kCompactionRead), primary_compaction);
  EXPECT_GT(primary_io.ReadBytes(IoClass::kLookup), primary_lookup);
  EXPECT_GT(primary_io.CacheMisses(), primary_misses);
  EXPECT_EQ(backup_io.ReadBytes(IoClass::kCompactionRead), 0u);
  EXPECT_GT(backup_io.ReadBytes(IoClass::kLookup), backup_lookup);
}

TEST(SendIndexTest, ThreeWayReplicationBothBackupsConsistent) {
  auto cluster = MakeSendIndexCluster(2, SmallOptions());
  std::map<std::string, std::string> model;
  Random rng(11);
  for (int i = 0; i < 4000; ++i) {
    std::string key = Key(rng.Uniform(600));
    std::string value = rng.Bytes(1 + rng.Uniform(120));
    ASSERT_TRUE(cluster.primary->Put(key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(cluster.primary->FlushL0().ok());
  for (int b = 0; b < 2; ++b) {
    for (const auto& [key, value] : model) {
      auto got = cluster.backups[b]->DebugGet(key);
      ASSERT_TRUE(got.ok()) << "backup" << b << " " << key;
      EXPECT_EQ(*got, value);
    }
  }
}

TEST(SendIndexTest, DeletesPropagateToBackup) {
  auto cluster = MakeSendIndexCluster(1, SmallOptions());
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i), "value").ok());
  }
  for (int i = 0; i < 600; i += 2) {
    ASSERT_TRUE(cluster.primary->Delete(Key(i)).ok());
  }
  ASSERT_TRUE(cluster.primary->FlushL0().ok());
  for (int i = 0; i < 600; ++i) {
    auto got = cluster.backups[0]->DebugGet(Key(i));
    if (i % 2 == 0) {
      EXPECT_TRUE(got.status().IsNotFound()) << i;
    } else {
      ASSERT_TRUE(got.ok()) << i;
    }
  }
}

TEST(SendIndexTest, LogMapTracksFlushedSegments) {
  auto cluster = MakeSendIndexCluster(1, SmallOptions());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i), std::string(100, 'x')).ok());
  }
  ASSERT_TRUE(cluster.primary->FlushL0().ok());
  const auto& log_map = cluster.backups[0]->log_map();
  EXPECT_EQ(log_map.size(), cluster.backups[0]->value_log()->flushed_segments().size());
  EXPECT_EQ(log_map.size(), cluster.primary->store()->value_log()->flushed_segments().size());
  // Every mapping points at an allocated local segment.
  for (const auto& [primary_seg, backup_seg] : log_map.entries()) {
    EXPECT_TRUE(cluster.backup_devices[0]->IsAllocated(backup_seg));
  }
}

TEST(SendIndexTest, NetworkTrafficExceedsBuildIndex) {
  // Send-Index trades network for device I/O: same workload, more bytes on
  // the fabric (the shipped indexes), fewer device reads on the backup.
  KvStoreOptions opts = SmallOptions();
  auto send = MakeSendIndexCluster(1, opts);
  auto build = MakeBuildIndexCluster(1, opts);
  for (int i = 0; i < 3000; ++i) {
    std::string key = Key(i % 700);
    std::string value = std::string(64, 'a' + (i % 26));
    ASSERT_TRUE(send.primary->Put(key, value).ok());
    ASSERT_TRUE(build.primary->Put(key, value).ok());
  }
  ASSERT_TRUE(send.primary->FlushL0().ok());
  ASSERT_TRUE(build.primary->FlushL0().ok());
  EXPECT_GT(send.fabric->TotalBytes(), build.fabric->TotalBytes());
  EXPECT_GT(Metric(*send.primary, "repl.index_bytes_shipped"), 0u);
  EXPECT_EQ(Metric(*build.primary, "repl.index_bytes_shipped"), 0u);
  // Backup device I/O: Build-Index reads for compactions, Send-Index doesn't.
  EXPECT_GT(build.backup_devices[0]->stats().ReadBytes(IoClass::kCompactionRead), 0u);
  EXPECT_EQ(send.backup_devices[0]->stats().ReadBytes(IoClass::kCompactionRead), 0u);
  EXPECT_LT(send.backup_devices[0]->stats().TotalReadBytes(),
            build.backup_devices[0]->stats().TotalReadBytes());
}

// --- Build-Index end-to-end -----------------------------------------------------

TEST(BuildIndexTest, BackupStoreMatchesPrimary) {
  auto cluster = MakeBuildIndexCluster(1, SmallOptions());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    std::string key = Key(i % 500);
    std::string value = "bi-" + std::to_string(i);
    ASSERT_TRUE(cluster.primary->Put(key, value).ok());
    model[key] = value;
  }
  // The backup has seen everything in *flushed* segments; flush the tail so
  // the remainder arrives too.
  ASSERT_TRUE(cluster.primary->store()->value_log()->FlushTail().ok());
  for (const auto& [key, value] : model) {
    auto got = cluster.backups[0]->store()->Get(key);
    ASSERT_TRUE(got.ok()) << key << " " << got.status().ToString();
    EXPECT_EQ(*got, value);
  }
  EXPECT_GT(Metric(*cluster.backups[0], "backup.records_inserted"), 0u);
  // Build-Index keeps an L0 (the memory cost Send-Index avoids).
  EXPECT_GT(cluster.backups[0]->l0_memory_bytes(), 0u);
}

TEST(BuildIndexTest, BackupRunsItsOwnCompactions) {
  auto cluster = MakeBuildIndexCluster(1, SmallOptions());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i), std::string(40, 'b')).ok());
  }
  ASSERT_TRUE(cluster.primary->store()->value_log()->FlushTail().ok());
  EXPECT_GT(Metric(*cluster.backups[0]->store(), "kv.compactions"), 0u);
}

// --- promotion (§3.5) -------------------------------------------------------------

TEST(PromotionTest, SendIndexBackupPromotesWithAllAckedData) {
  auto cluster = MakeSendIndexCluster(1, SmallOptions());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2500; ++i) {
    std::string key = Key(i % 900);
    std::string value = "pv-" + std::to_string(i);
    ASSERT_TRUE(cluster.primary->Put(key, value).ok());
    model[key] = value;
  }
  // Note: NO FlushL0 — some acked records live only in the primary's L0 and
  // the backup's RDMA buffer / flushed tail segments. The primary now "dies".
  auto promoted = cluster.backups[0]->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  for (const auto& [key, value] : model) {
    auto got = (*promoted)->Get(key);
    ASSERT_TRUE(got.ok()) << key << " " << got.status().ToString();
    EXPECT_EQ(*got, value) << key;
  }
}

TEST(PromotionTest, PromotedStoreServesNewWrites) {
  auto cluster = MakeSendIndexCluster(1, SmallOptions());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i), "old").ok());
  }
  auto promoted = cluster.backups[0]->Promote();
  ASSERT_TRUE(promoted.ok());
  // The new primary keeps working: writes, compactions, reads.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*promoted)->Put(Key(i), "new-" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 2000; i += 97) {
    auto got = (*promoted)->Get(Key(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "new-" + std::to_string(i));
  }
}

TEST(PromotionTest, DeletesSurvivePromotion) {
  auto cluster = MakeSendIndexCluster(1, SmallOptions());
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i), "value").ok());
  }
  for (int i = 0; i < 800; i += 3) {
    ASSERT_TRUE(cluster.primary->Delete(Key(i)).ok());
  }
  auto promoted = cluster.backups[0]->Promote();
  ASSERT_TRUE(promoted.ok());
  for (int i = 0; i < 800; ++i) {
    auto got = (*promoted)->Get(Key(i));
    if (i % 3 == 0) {
      EXPECT_TRUE(got.status().IsNotFound()) << i;
    } else {
      ASSERT_TRUE(got.ok()) << i;
    }
  }
}

TEST(PromotionTest, BackupRejectsL0BoundaryPastItsLog) {
  auto cluster = MakeSendIndexCluster(1, SmallOptions());
  SendIndexBackupRegion* backup = cluster.backups[0].get();
  // Nothing is flushed yet: a boundary of one segment names a flush this
  // replica never absorbed, and committing it would start promotion replay
  // past the end of its log.
  EXPECT_EQ(backup
                ->Handle(CompactionBeginMsg{
                    .compaction_id = 1, .src_level = 0, .dst_level = 1, .l0_boundary = 1})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(backup->active_streams(), 0u);
  EXPECT_TRUE(backup
                  ->Handle(CompactionBeginMsg{
                      .compaction_id = 1, .src_level = 0, .dst_level = 1, .l0_boundary = 0})
                  .ok());
  EXPECT_EQ(backup->active_streams(), 1u);
}

TEST(PromotionTest, HalfShippedCompactionIsAborted) {
  auto cluster = MakeSendIndexCluster(1, SmallOptions());
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i), "stable").ok());
  }
  // Simulate the primary dying mid-compaction: begin + one bogus segment,
  // no end.
  SendIndexBackupRegion* backup = cluster.backups[0].get();
  const uint64_t before_segments = cluster.backup_devices[0]->AllocatedSegments();
  ASSERT_TRUE(
      backup->Handle(CompactionBeginMsg{.compaction_id = 999, .src_level = 1, .dst_level = 2})
          .ok());
  std::string fake_segment(SmallOptions().node_size, 0);
  LeafNodeBuilder leaf(fake_segment.data(), fake_segment.size());
  leaf.Add("zzz", cluster.primary->store()->value_log()->flushed_segments().empty()
                      ? 0
                      : cluster.primary_device->geometry().BaseOffset(
                            cluster.primary->store()->value_log()->flushed_segments()[0]),
           /*tombstone=*/false, KeyHash("zzz"));
  leaf.Finish();
  const std::string wire = EncodeIndexSegment(fake_segment, SmallOptions().node_size);
  ASSERT_TRUE(backup
                  ->Handle(IndexSegmentMsg{
                      .compaction_id = 999,
                      .dst_level = 2,
                      .primary_segment = 424242,
                      .data = Slice(wire),
                      .payload_crc = Crc32c(fake_segment.data(), fake_segment.size())})
                  .ok());
  auto promoted = backup->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  (void)before_segments;
  // The aborted compaction's segments were freed: every allocated segment is
  // accounted for by the promoted store's log and levels (no leaks).
  uint64_t expected = (*promoted)->value_log()->flushed_segments().size() + 1;  // + tail
  for (uint32_t l = 1; l <= (*promoted)->max_levels(); ++l) {
    expected += (*promoted)->level(l).segments.size();
  }
  EXPECT_EQ(cluster.backup_devices[0]->AllocatedSegments(), expected);
  // All data still readable.
  for (int i = 0; i < 1500; i += 113) {
    EXPECT_TRUE((*promoted)->Get(Key(i)).ok()) << i;
  }
}

// Backup 0 is promoted; backup 1 re-keys its log map with backup 0's map at
// the promotion's epoch. Every new-primary segment then maps to a segment of
// backup 1 holding byte-identical log content, and a retried adoption at the
// same epoch changes nothing.
template <typename Cluster>
void ExpectRemainingBackupRekeys(Cluster& cluster) {
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i), std::string(80, 'r')).ok());
  }
  SegmentMap new_primary_map = cluster.backups[0]->log_map();
  ASSERT_GT(new_primary_map.size(), 0u);
  ASSERT_TRUE(cluster.backups[1]->AdoptNewPrimaryLogMap(new_primary_map, /*epoch=*/2).ok());
  const SegmentMap rekeyed = cluster.backups[1]->log_map();
  EXPECT_EQ(rekeyed.size(), new_primary_map.size());
  const uint64_t seg_size = kSegmentSize;
  std::string a(seg_size, 0), b(seg_size, 0);
  for (const auto& [new_primary_seg, backup1_seg] : rekeyed.entries()) {
    ASSERT_TRUE(cluster.backup_devices[0]
                    ->Read(cluster.backup_devices[0]->geometry().BaseOffset(new_primary_seg),
                           seg_size, a.data(), IoClass::kOther)
                    .ok());
    ASSERT_TRUE(cluster.backup_devices[1]
                    ->Read(cluster.backup_devices[1]->geometry().BaseOffset(backup1_seg),
                           seg_size, b.data(), IoClass::kOther)
                    .ok());
    EXPECT_EQ(a, b);
  }
  ASSERT_TRUE(cluster.backups[1]->AdoptNewPrimaryLogMap(new_primary_map, /*epoch=*/2).ok());
  EXPECT_EQ(cluster.backups[1]->log_map().entries(), rekeyed.entries());
}

TEST(PromotionTest, RemainingBackupRekeysLogMap) {
  {
    SCOPED_TRACE("Send-Index");
    auto cluster = MakeSendIndexCluster(2, SmallOptions());
    ExpectRemainingBackupRekeys(cluster);
  }
  {
    SCOPED_TRACE("Build-Index");
    auto cluster = MakeBuildIndexCluster(2, SmallOptions());
    ExpectRemainingBackupRekeys(cluster);
  }
}

TEST(PromotionTest, BuildIndexBackupPromotes) {
  auto cluster = MakeBuildIndexCluster(1, SmallOptions());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    std::string key = Key(i % 400);
    std::string value = "bp-" + std::to_string(i);
    ASSERT_TRUE(cluster.primary->Put(key, value).ok());
    model[key] = value;
  }
  auto promoted = cluster.backups[0]->Promote();
  ASSERT_TRUE(promoted.ok());
  for (const auto& [key, value] : model) {
    auto got = (*promoted)->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
}

// --- GC coordination -----------------------------------------------------------

TEST(ReplicatedGcTest, BackupsTrimAndStayConsistent) {
  KvStoreOptions opts = SmallOptions();
  opts.l0_max_entries = 64;
  auto cluster = MakeSendIndexCluster(1, opts);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i % 60), std::string(120, 'g')).ok());
  }
  const size_t backup_log_before = cluster.backups[0]->value_log()->flushed_segments().size();
  ASSERT_GT(backup_log_before, 4u);
  auto freed = cluster.primary->GarbageCollect(3);
  ASSERT_TRUE(freed.ok()) << freed.status().ToString();
  EXPECT_EQ(*freed, 3u);
  EXPECT_LT(cluster.backups[0]->value_log()->flushed_segments().size(), backup_log_before + 10);
  // All keys remain consistent on the backup after trim.
  ASSERT_TRUE(cluster.primary->FlushL0().ok());
  for (int k = 0; k < 60; ++k) {
    auto primary_val = cluster.primary->Get(Key(k));
    auto backup_val = cluster.backups[0]->DebugGet(Key(k));
    ASSERT_TRUE(primary_val.ok()) << k;
    ASSERT_TRUE(backup_val.ok()) << k << " " << backup_val.status().ToString();
    EXPECT_EQ(*primary_val, *backup_val);
  }
}

// --- property test: random ops, primary/backup equivalence -----------------------

class ReplicationPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ReplicationPropertyTest, SendIndexBackupAlwaysConsistentAfterFlush) {
  KvStoreOptions opts = SmallOptions();
  opts.l0_max_entries = 128;
  auto cluster = MakeSendIndexCluster(1, opts);
  Random rng(GetParam());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 4000; ++i) {
    std::string key = Key(rng.Uniform(300));
    if (rng.Uniform(10) < 8) {
      std::string value = rng.Bytes(1 + rng.Uniform(150));
      ASSERT_TRUE(cluster.primary->Put(key, value).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE(cluster.primary->Delete(key).ok());
      model.erase(key);
    }
  }
  ASSERT_TRUE(cluster.primary->FlushL0().ok());
  for (int k = 0; k < 300; ++k) {
    auto got = cluster.backups[0]->DebugGet(Key(k));
    auto expect = model.find(Key(k));
    if (expect == model.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << Key(k) << " " << got.status().ToString();
    } else {
      ASSERT_TRUE(got.ok()) << Key(k) << " " << got.status().ToString();
      EXPECT_EQ(*got, expect->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationPropertyTest, testing::Values(21, 22, 23));

}  // namespace
}  // namespace tebis
