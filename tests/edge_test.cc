// Edge cases and deeper scenarios across module boundaries.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/lsm/index_codec.h"
#include "src/net/fabric.h"
#include "src/net/message.h"
#include "src/replication/build_index_backup.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"
#include "src/ycsb/sim_cluster.h"
#include "tests/metric_reader.h"

namespace tebis {
namespace {

constexpr uint64_t kSegmentSize = 1 << 16;

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
  opts.max_levels = 3;
  return opts;
}

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", static_cast<unsigned long long>(i));
  return buf;
}

// --- KvStore boundaries -----------------------------------------------------

TEST(KvStoreEdgeTest, MaxSizeKeyRoundTrips) {
  auto dev = MakeDevice();
  auto store = KvStore::Create(dev.get(), SmallOptions());
  ASSERT_TRUE(store.ok());
  const std::string key(kMaxKeySize, 'K');
  ASSERT_TRUE((*store)->Put(key, "big-key-value").ok());
  ASSERT_TRUE((*store)->FlushL0().ok());  // survives a compaction too
  auto v = (*store)->Get(key);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "big-key-value");
  // One byte longer is rejected.
  EXPECT_FALSE((*store)->Put(key + "x", "v").ok());
}

TEST(KvStoreEdgeTest, EmptyValueIsLegal) {
  auto dev = MakeDevice();
  auto store = KvStore::Create(dev.get(), SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("empty", "").ok());
  auto v = (*store)->Get("empty");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "");
  // Empty value != deleted.
  ASSERT_TRUE((*store)->Delete("empty").ok());
  EXPECT_TRUE((*store)->Get("empty").status().IsNotFound());
}

TEST(KvStoreEdgeTest, ValueNearSegmentSize) {
  auto dev = MakeDevice();
  auto store = KvStore::Create(dev.get(), SmallOptions());
  ASSERT_TRUE(store.ok());
  // Largest value that fits a record in one segment.
  const size_t max_value =
      kSegmentSize - LogRecordSize(3, 0) - 4;
  ASSERT_TRUE((*store)->Put("big", std::string(max_value, 'v')).ok());
  auto v = (*store)->Get("big");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), max_value);
  EXPECT_FALSE((*store)->Put("big", std::string(max_value + 1, 'v')).ok());
}

TEST(KvStoreEdgeTest, GetOnEmptyStore) {
  auto dev = MakeDevice();
  auto store = KvStore::Create(dev.get(), SmallOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Get("anything").status().IsNotFound());
  auto scan = (*store)->Scan(Slice(), 10);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->empty());
  EXPECT_TRUE((*store)->FlushL0().ok());  // flushing nothing is fine
}

TEST(KvStoreEdgeTest, ScanLimitZeroAndDeleteMissing) {
  auto dev = MakeDevice();
  auto store = KvStore::Create(dev.get(), SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "v").ok());
  auto scan = (*store)->Scan(Slice(), 0);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->empty());
  // Deleting a missing key writes a tombstone (legal; hides nothing).
  ASSERT_TRUE((*store)->Delete("never-existed").ok());
  EXPECT_TRUE((*store)->Get("never-existed").status().IsNotFound());
}

TEST(KvStoreEdgeTest, ManyVersionsOfOneKey) {
  auto dev = MakeDevice();
  auto store = KvStore::Create(dev.get(), SmallOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*store)->Put("hot", "version-" + std::to_string(i)).ok());
    if (i % 500 == 0) {
      ASSERT_TRUE((*store)->FlushL0().ok());
    }
  }
  auto v = (*store)->Get("hot");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "version-2999");
  // The full scan returns exactly one version.
  auto scan = (*store)->Scan(Slice(), 100);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 1u);
  EXPECT_EQ((*scan)[0].value, "version-2999");
}

// --- forward-reference reservation in the rewriter (§3.3) ---------------------

TEST(IndexRewriteEdgeTest, ParentSegmentShippedBeforeChild) {
  // Construct the race the reservation mechanism exists for: an index-node
  // segment referencing a leaf segment arrives first; the backup must reserve
  // a local segment for the child and fill it when the bytes arrive.
  auto primary_dev = MakeDevice();
  auto backup_dev = MakeDevice();
  Fabric fabric;
  auto buffer = fabric.RegisterBuffer("b", "p", kSegmentSize);
  KvStoreOptions opts = SmallOptions();
  auto backup = SendIndexBackupRegion::Create(backup_dev.get(), opts, buffer);
  ASSERT_TRUE(backup.ok());

  // Build a two-node "tree" on the primary device: leaf in segment A, index
  // root in segment B pointing at the leaf.
  auto log = ValueLog::Create(primary_dev.get());
  ASSERT_TRUE(log.ok());
  auto rec = (*log)->Append("only-key", "only-value", false);
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE((*log)->FlushTail().ok());
  const SegmentId log_seg = (*log)->flushed_segments()[0];

  // Backup must know the log mapping first (the flush message).
  std::string image(kSegmentSize, 0);
  ASSERT_TRUE(primary_dev->Read(primary_dev->geometry().BaseOffset(log_seg), kSegmentSize,
                                image.data(), IoClass::kOther)
                  .ok());
  ASSERT_TRUE(buffer->RdmaWrite(0, image).ok());
  ASSERT_TRUE((*backup)
                  ->Handle(FlushLogMsg{.primary_segment = log_seg,
                                       .tail_bytes = ValueLog::SealedPrefixLength(image)})
                  .ok());

  const SegmentId leaf_seg = 70;   // primary segment numbers, never shipped yet
  const SegmentId index_seg = 71;
  SegmentGeometry geometry(kSegmentSize);
  std::string leaf_segment(opts.node_size, 0);
  LeafNodeBuilder leaf(leaf_segment.data(), opts.node_size);
  leaf.Add("only-key", rec->offset, /*tombstone=*/false, KeyHash("only-key"));
  leaf.Finish();
  const uint64_t leaf_offset = geometry.BaseOffset(leaf_seg);  // node at offset 0

  std::string index_segment(opts.node_size, 0);
  IndexNodeBuilder index(index_segment.data(), opts.node_size);
  index.Add("only-key", leaf_offset);
  index.Finish(1);

  // Ship PARENT first: the rewrite must reserve a local segment for leaf_seg.
  auto ship = [&](uint32_t tree_level, SegmentId seg, const std::string& bytes) {
    const std::string wire = EncodeIndexSegment(bytes, opts.node_size);
    return (*backup)->Handle(IndexSegmentMsg{.compaction_id = 1,
                                             .dst_level = 1,
                                             .tree_level = tree_level,
                                             .primary_segment = seg,
                                             .data = Slice(wire),
                                             .payload_crc = Crc32c(bytes.data(), bytes.size())});
  };
  ASSERT_TRUE(
      (*backup)->Handle(CompactionBeginMsg{.compaction_id = 1, .src_level = 0, .dst_level = 1})
          .ok());
  BuiltTree primary_tree;
  primary_tree.root_offset = geometry.BaseOffset(index_seg);
  primary_tree.height = 1;
  primary_tree.num_entries = 1;
  primary_tree.segments = {leaf_seg, index_seg};
  primary_tree.seg_checksums = {
      {Crc32c(leaf_segment.data(), leaf_segment.size()), static_cast<uint32_t>(opts.node_size)},
      {Crc32c(index_segment.data(), index_segment.size()), static_cast<uint32_t>(opts.node_size)}};
  auto end = [&](const BuiltTree& tree) {
    return (*backup)->Handle(
        CompactionEndMsg{.compaction_id = 1, .src_level = 0, .dst_level = 1, .tree = tree});
  };
  ASSERT_TRUE(ship(1, index_seg, index_segment).ok());
  // The leaf segment is reserved but has no bytes yet: a level naming it
  // would have no checksum for it, so the end is refused and installs nothing.
  Status early = end(primary_tree);
  EXPECT_TRUE(early.IsCorruption()) << early.ToString();
  ASSERT_TRUE(ship(0, leaf_seg, leaf_segment).ok());
  // A rewrite is in place: a primary checksum of another length is refused.
  BuiltTree wrong_length = primary_tree;
  wrong_length.seg_checksums[0].length -= 1;
  Status mismatched = end(wrong_length);
  EXPECT_TRUE(mismatched.IsCorruption()) << mismatched.ToString();
  ASSERT_TRUE(end(primary_tree).ok());

  // The backup serves the key through its rewritten two-level tree.
  auto value = (*backup)->DebugGet("only-key");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, "only-value");
}

// The backup translates leaf offsets through a flat table of the log map
// snapshot taken at the compaction begin. A leaf naming a log segment the
// snapshot lacks — a hole inside the table or an id past its end — is
// refused before anything is written.
TEST(IndexRewriteEdgeTest, LeafNamingUnmappedLogSegmentIsRefused) {
  constexpr SegmentId kMappedLogSegment = 5;  // the table spans ids 0..5
  for (const SegmentId unmapped : {SegmentId{2}, SegmentId{9}}) {
    SCOPED_TRACE("unmapped primary log segment " + std::to_string(unmapped));
    auto backup_dev = MakeDevice();
    Fabric fabric;
    auto buffer = fabric.RegisterBuffer("b", "p", kSegmentSize);
    KvStoreOptions opts = SmallOptions();
    auto backup = SendIndexBackupRegion::Create(backup_dev.get(), opts, buffer);
    ASSERT_TRUE(backup.ok());

    // One replicated log segment, flushed as primary segment 5.
    auto primary_dev = MakeDevice();
    auto log = ValueLog::Create(primary_dev.get());
    ASSERT_TRUE(log.ok());
    auto rec = (*log)->Append("only-key", "only-value", false);
    ASSERT_TRUE(rec.ok());
    ASSERT_TRUE((*log)->FlushTail().ok());
    std::string image(kSegmentSize, 0);
    ASSERT_TRUE(primary_dev
                    ->Read(primary_dev->geometry().BaseOffset((*log)->flushed_segments()[0]),
                           kSegmentSize, image.data(), IoClass::kOther)
                    .ok());
    ASSERT_TRUE(buffer->RdmaWrite(0, image).ok());
    ASSERT_TRUE((*backup)
                    ->Handle(FlushLogMsg{.primary_segment = kMappedLogSegment,
                                         .tail_bytes = ValueLog::SealedPrefixLength(image)})
                    .ok());
    ASSERT_TRUE(
        (*backup)->Handle(CompactionBeginMsg{.compaction_id = 1, .src_level = 0, .dst_level = 1})
            .ok());

    // A leaf whose first entry is mapped and whose second is not.
    SegmentGeometry geometry(kSegmentSize);
    std::string leaf_segment(opts.node_size, 0);
    LeafNodeBuilder leaf(leaf_segment.data(), opts.node_size);
    leaf.Add("key-a", geometry.BaseOffset(kMappedLogSegment) + 64, false, KeyHash("key-a"));
    leaf.Add("key-b", geometry.BaseOffset(unmapped) + 64, false, KeyHash("key-b"));
    leaf.Finish();
    const std::string wire = EncodeIndexSegment(leaf_segment, opts.node_size);
    const Status refused = (*backup)->Handle(
        IndexSegmentMsg{.compaction_id = 1,
                        .dst_level = 1,
                        .primary_segment = 70,
                        .data = Slice(wire),
                        .payload_crc = Crc32c(leaf_segment.data(), leaf_segment.size())});
    EXPECT_TRUE(refused.IsCorruption() || refused.IsNotFound()) << refused.ToString();
    EXPECT_NE(refused.message().find("primary segment " + std::to_string(unmapped)),
              std::string::npos)
        << refused.ToString();
    EXPECT_EQ(backup_dev->stats().WriteBytes(IoClass::kIndexRewrite), 0u);
    EXPECT_EQ(Metric(**backup, "backup.segments_rewritten"), 0u);
  }
}

// --- promotion after GC ---------------------------------------------------------

TEST(GcPromotionTest, PromoteAfterTrimServesEverything) {
  auto primary_dev = MakeDevice();
  auto backup_dev = MakeDevice();
  Fabric fabric;
  KvStoreOptions opts = SmallOptions();
  opts.l0_max_entries = 64;
  auto primary = PrimaryRegion::Create(primary_dev.get(), opts, ReplicationMode::kSendIndex);
  ASSERT_TRUE(primary.ok());
  auto buffer = fabric.RegisterBuffer("b0", "p0", kSegmentSize);
  auto backup = SendIndexBackupRegion::Create(backup_dev.get(), opts, buffer);
  ASSERT_TRUE(backup.ok());
  (*primary)->AddBackup(std::make_unique<LocalBackupChannel>(&fabric, "p0", buffer,
                                                             backup->get()));
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*primary)->Put(Key(i % 50), std::string(120, 'x' + (i % 3))).ok());
  }
  auto freed = (*primary)->GarbageCollect(3);
  ASSERT_TRUE(freed.ok()) << freed.status().ToString();
  ASSERT_GT(*freed, 0u);
  // Keep writing, then promote the backup.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*primary)->Put(Key(i % 50), "final-" + std::to_string(i)).ok());
  }
  std::map<std::string, std::string> expect;
  for (int k = 0; k < 50; ++k) {
    auto v = (*primary)->Get(Key(k));
    ASSERT_TRUE(v.ok());
    expect[Key(k)] = *v;
  }
  auto promoted = (*backup)->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  for (const auto& [key, value] : expect) {
    auto v = (*promoted)->Get(key);
    ASSERT_TRUE(v.ok()) << key << " " << v.status().ToString();
    EXPECT_EQ(*v, value) << key;
  }
}

// A value-log trim drops the head of the flushed-segment list, so the L0
// boundary a later full sync ships must drop with it, or the synced backup's
// replay start points past its own log.
TEST(GcPromotionTest, FullSyncAfterTrimStartsReplayInsideTheLog) {
  auto primary_dev = MakeDevice();
  auto late_dev = MakeDevice();
  Fabric fabric;
  KvStoreOptions opts = SmallOptions();
  opts.l0_max_entries = 64;
  auto primary = PrimaryRegion::Create(primary_dev.get(), opts, ReplicationMode::kSendIndex);
  ASSERT_TRUE(primary.ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*primary)->Put(Key(i % 50), std::string(120, 'x' + (i % 3))).ok());
  }
  auto freed = (*primary)->GarbageCollect(3);
  ASSERT_TRUE(freed.ok()) << freed.status().ToString();
  ASSERT_GT(*freed, 0u);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*primary)->Put(Key(i % 50), "final-" + std::to_string(i)).ok());
  }
  ASSERT_LE((*primary)->l0_boundary(),
            (*primary)->store()->value_log()->flushed_segment_count());

  auto late_buffer = fabric.RegisterBuffer("late", "p0", kSegmentSize);
  auto late = SendIndexBackupRegion::Create(late_dev.get(), opts, late_buffer);
  ASSERT_TRUE(late.ok());
  LocalBackupChannel channel(&fabric, "p0", late_buffer, late->get());
  ASSERT_TRUE((*primary)->FullSync(&channel).ok());
  ASSERT_LE((*late)->replay_from(), (*late)->value_log()->flushed_segments().size());
  std::map<std::string, std::string> expect;
  for (int k = 0; k < 50; ++k) {
    auto v = (*primary)->Get(Key(k));
    ASSERT_TRUE(v.ok());
    expect[Key(k)] = *v;
  }
  // Nothing is left in the primary's tail: the sync flushed it.
  auto promoted = (*late)->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  for (const auto& [key, value] : expect) {
    auto v = (*promoted)->Get(key);
    ASSERT_TRUE(v.ok()) << key << " " << v.status().ToString();
    EXPECT_EQ(*v, value) << key;
  }
}

// --- FullSync equivalence ---------------------------------------------------------

TEST(FullSyncTest, SyncedBackupMatchesLiveBackup) {
  // Build a primary with one live backup; after a workload, full-sync a
  // SECOND backup and require both backups to serve identical data.
  auto primary_dev = MakeDevice();
  auto live_dev = MakeDevice();
  auto late_dev = MakeDevice();
  Fabric fabric;
  KvStoreOptions opts = SmallOptions();
  auto primary = PrimaryRegion::Create(primary_dev.get(), opts, ReplicationMode::kSendIndex);
  ASSERT_TRUE(primary.ok());
  auto live_buffer = fabric.RegisterBuffer("live", "p0", kSegmentSize);
  auto live = SendIndexBackupRegion::Create(live_dev.get(), opts, live_buffer);
  ASSERT_TRUE(live.ok());
  (*primary)->AddBackup(std::make_unique<LocalBackupChannel>(&fabric, "p0", live_buffer,
                                                             live->get()));
  Random rng(9);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*primary)->Put(Key(rng.Uniform(700)), rng.Bytes(1 + rng.Uniform(100))).ok());
  }
  // Late joiner.
  auto late_buffer = fabric.RegisterBuffer("late", "p0", kSegmentSize);
  auto late = SendIndexBackupRegion::Create(late_dev.get(), opts, late_buffer);
  ASSERT_TRUE(late.ok());
  LocalBackupChannel channel(&fabric, "p0", late_buffer, late->get());
  ASSERT_TRUE((*primary)->FullSync(&channel).ok());
  (*primary)->AddBackup(std::make_unique<LocalBackupChannel>(&fabric, "p0", late_buffer,
                                                             late->get()));
  // More traffic after the sync, then flush everything down.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE((*primary)->Put(Key(rng.Uniform(700)), "post-sync").ok());
  }
  ASSERT_TRUE((*primary)->FlushL0().ok());
  for (int k = 0; k < 700; ++k) {
    auto a = (*live)->DebugGet(Key(k));
    auto b = (*late)->DebugGet(Key(k));
    ASSERT_EQ(a.ok(), b.ok()) << Key(k) << " " << a.status().ToString() << " vs "
                              << b.status().ToString();
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << Key(k);
    }
  }
  // The late backup can be promoted (its replay point was synced too).
  auto promoted = (*late)->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  ASSERT_TRUE((*promoted)->Get(Key(0)).ok() ||
              (*promoted)->Get(Key(0)).status().IsNotFound());
}

// --- sealed log prefixes (§3.2) -----------------------------------------------------
//
// A seal writes a tail's used prefix and a pad marker, nothing more, and a
// backup persists exactly the prefix the flush message names.

// The bytes a seal wrote to flushed log segment `segment` of `device`.
std::string SealedPrefix(BlockDevice* device, SegmentId segment) {
  std::string image(device->segment_size(), '\0');
  EXPECT_TRUE(device
                  ->Read(device->geometry().BaseOffset(segment), image.size(), image.data(),
                         IoClass::kOther)
                  .ok());
  image.resize(ValueLog::SealedPrefixLength(image));
  return image;
}

// Ghost and fresh records have one size, so a fresh prefix ends where a ghost
// record begins: a reader that walked past the pad marker would decode ghosts.
constexpr size_t kValueSize = 100;
std::string GhostKey(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "ghost%06d", i);
  return buf;
}
std::string FreshKey(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "fresh%06d", i);
  return buf;
}

// Fills the first `segments` segments of a new backing `file` with valid
// ghost records, then returns a device that reopens the file without
// adopting any segment: every segment it allocates is a reused one whose old
// bytes are ghosts.
std::unique_ptr<BlockDevice> DeviceOverGhosts(const std::string& file, int segments) {
  BlockDeviceOptions opts;
  opts.segment_size = kSegmentSize;
  opts.max_segments = 1 << 16;
  opts.backing_file = file;
  {
    auto dev = BlockDevice::Create(opts);
    EXPECT_TRUE(dev.ok());
    auto log = ValueLog::Create(dev->get());
    EXPECT_TRUE(log.ok());
    for (int i = 0; (*log)->flushed_segment_count() < static_cast<size_t>(segments); ++i) {
      EXPECT_TRUE((*log)->Append(GhostKey(i), std::string(kValueSize, 'g'), false).ok());
    }
  }
  opts.reopen_existing = true;
  auto dev = BlockDevice::Create(opts);
  EXPECT_TRUE(dev.ok());
  return std::move(*dev);
}

// `segment` of `device` holds a sealed prefix followed by intact ghost records.
void ExpectGhostsPastPrefix(BlockDevice* device, SegmentId segment) {
  const size_t record = LogRecordSize(GhostKey(0).size(), kValueSize);
  std::string image(device->segment_size(), '\0');
  ASSERT_TRUE(device
                  ->Read(device->geometry().BaseOffset(segment), image.size(), image.data(),
                         IoClass::kOther)
                  .ok());
  const size_t used = ValueLog::SealedPrefixLength(image) - sizeof(kPadMarker);
  ASSERT_EQ(used % record, 0u);
  std::vector<std::string> past;
  const Slice rest(image.data() + used + record, image.size() - used - record);
  ASSERT_TRUE(ValueLog::ForEachRecord(rest, /*segment_base=*/0,
                                      [&past](const LogRecord& rec) {
                                        past.push_back(rec.key);
                                        return Status::Ok();
                                      })
                  .ok());
  ASSERT_FALSE(past.empty());
  EXPECT_EQ(past[0].substr(0, 5), "ghost");
}

// Exactly the fresh keys, each with its value; no ghost.
void ExpectOnlyFresh(KvStore* store, int fresh) {
  for (int i = 0; i < fresh; ++i) {
    auto v = store->Get(FreshKey(i));
    ASSERT_TRUE(v.ok()) << FreshKey(i) << " " << v.status().ToString();
    EXPECT_EQ(*v, std::string(kValueSize, 'a' + i % 26));
  }
  for (int i = 0; i < fresh; i += 7) {
    EXPECT_TRUE(store->Get(GhostKey(i)).status().IsNotFound()) << GhostKey(i);
  }
  auto all = store->Scan(Slice(), 100000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), static_cast<size_t>(fresh));
}

class SealedPrefixTest : public testing::TestWithParam<ReplicationMode> {
 protected:
  static std::unique_ptr<BackupRegion> MakeBackup(BlockDevice* device,
                                                  std::shared_ptr<RegisteredBuffer> buffer) {
    if (GetParam() == ReplicationMode::kSendIndex) {
      auto backup = SendIndexBackupRegion::Create(device, SmallOptions(), std::move(buffer));
      EXPECT_TRUE(backup.ok());
      return std::move(*backup);
    }
    auto backup = BuildIndexBackupRegion::Create(device, SmallOptions(), std::move(buffer));
    EXPECT_TRUE(backup.ok());
    return std::move(*backup);
  }
};

INSTANTIATE_TEST_SUITE_P(Modes, SealedPrefixTest,
                         testing::Values(ReplicationMode::kSendIndex,
                                         ReplicationMode::kBuildIndex),
                         [](const testing::TestParamInfo<ReplicationMode>& info) {
                           return info.param == ReplicationMode::kSendIndex ? "SendIndex"
                                                                            : "BuildIndex";
                         });

TEST_P(SealedPrefixTest, BackupLogSegmentsEqualThePrimarysWrittenPrefixes) {
  auto primary_dev = MakeDevice();
  auto backup_dev = MakeDevice();
  Fabric fabric;
  auto primary = PrimaryRegion::Create(primary_dev.get(), SmallOptions(), GetParam());
  ASSERT_TRUE(primary.ok());
  auto buffer = fabric.RegisterBuffer("b0", "p0", kSegmentSize);
  std::unique_ptr<BackupRegion> backup = MakeBackup(backup_dev.get(), buffer);
  (*primary)->AddBackup(std::make_unique<LocalBackupChannel>(&fabric, "p0", buffer, backup.get()));
  // Seals by fill (large values) and by L0 seal (a partial tail each time).
  Random rng(5);
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE((*primary)->Put(Key(rng.Uniform(400)), rng.Bytes(1 + rng.Uniform(300))).ok());
    if (i % 300 == 299) {
      ASSERT_TRUE((*primary)->FlushL0().ok());
    }
  }
  ASSERT_TRUE((*primary)->store()->value_log()->FlushTail().ok());

  const std::vector<SegmentId> flushed =
      (*primary)->store()->value_log()->FlushedSegmentsSnapshot();
  ASSERT_GT(flushed.size(), 3u);
  size_t partial = 0;
  for (SegmentId seg : flushed) {
    const std::string primary_prefix = SealedPrefix(primary_dev.get(), seg);
    // A seal by fill leaves less than one record (< 350 B) unused.
    partial += primary_prefix.size() + 1024 < kSegmentSize ? 1 : 0;
    auto local = backup->log_map().Lookup(seg);
    ASSERT_TRUE(local.ok()) << seg;
    std::string mirrored(primary_prefix.size(), '\0');
    ASSERT_TRUE(backup_dev
                    ->Read(backup_dev->geometry().BaseOffset(*local), mirrored.size(),
                           mirrored.data(), IoClass::kOther)
                    .ok());
    EXPECT_EQ(mirrored, primary_prefix) << "primary segment " << seg;
  }
  EXPECT_GT(partial, 0u);
  // Both sides wrote exactly the sealed prefixes, nothing past them.
  EXPECT_EQ(backup_dev->stats().WriteBytes(IoClass::kLogFlush),
            primary_dev->stats().WriteBytes(IoClass::kLogFlush));
}

TEST_P(SealedPrefixTest, FlushLengthOutsideOneSegmentIsRejected) {
  auto backup_dev = MakeDevice();
  Fabric fabric;
  auto buffer = fabric.RegisterBuffer("b0", "p0", kSegmentSize);
  std::unique_ptr<BackupRegion> backup = MakeBackup(backup_dev.get(), buffer);
  for (uint64_t bad : {uint64_t{0}, uint64_t{3}, kSegmentSize + 1}) {
    Status s = backup->Handle(FlushLogMsg{.primary_segment = 9, .tail_bytes = bad});
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad << ": " << s.ToString();
  }
  EXPECT_EQ(backup_dev->stats().WriteBytes(IoClass::kLogFlush), 0u);
  // The bounds themselves are valid: an empty sealed tail and a full one.
  EXPECT_TRUE(backup->Handle(FlushLogMsg{.primary_segment = 9, .tail_bytes = 4}).ok());
  EXPECT_TRUE(backup->Handle(FlushLogMsg{.primary_segment = 10, .tail_bytes = kSegmentSize}).ok());
  EXPECT_EQ(backup_dev->stats().WriteBytes(IoClass::kLogFlush), 4 + kSegmentSize);
}

TEST_P(SealedPrefixTest, PromotionOverReusedSegmentsReplaysOnlyTheNewPrefix) {
  // One file per mode: ctest may run both modes at once.
  const std::string file = testing::TempDir() + "/tebis_ghosts_backup_" +
                           std::to_string(static_cast<int>(GetParam())) + ".img";
  auto backup_dev = DeviceOverGhosts(file, 6);
  auto primary_dev = MakeDevice();
  Fabric fabric;
  auto primary = PrimaryRegion::Create(primary_dev.get(), SmallOptions(), GetParam());
  ASSERT_TRUE(primary.ok());
  auto buffer = fabric.RegisterBuffer("b0", "p0", kSegmentSize);
  std::unique_ptr<BackupRegion> backup = MakeBackup(backup_dev.get(), buffer);
  (*primary)->AddBackup(std::make_unique<LocalBackupChannel>(&fabric, "p0", buffer, backup.get()));
  // Fewer records than one memtable: nothing compacts, so promotion rebuilds
  // them from the persisted log (Send-Index) or holds them from the flushes
  // (Build-Index).
  constexpr int kFresh = 200;
  for (int i = 0; i < kFresh; ++i) {
    ASSERT_TRUE((*primary)->Put(FreshKey(i), std::string(kValueSize, 'a' + i % 26)).ok());
    if (i == kFresh / 2) {
      ASSERT_TRUE((*primary)->store()->value_log()->FlushTail().ok());
    }
  }
  ASSERT_TRUE((*primary)->store()->value_log()->FlushTail().ok());
  for (SegmentId seg : (*primary)->store()->value_log()->FlushedSegmentsSnapshot()) {
    auto local = backup->log_map().Lookup(seg);
    ASSERT_TRUE(local.ok());
    ASSERT_NO_FATAL_FAILURE(ExpectGhostsPastPrefix(backup_dev.get(), *local));
  }
  primary->reset();
  auto promoted = backup->Promote(/*replay_rdma_buffer=*/true);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  ExpectOnlyFresh(promoted->get(), kFresh);
  promoted->reset();
  std::remove(file.c_str());
}

// A full sync moves each flushed segment's sealed prefix, not the segment.
TEST(FullSyncTest, ShipsSealedPrefixesAndTheSyncedBackupServesEveryKey) {
  auto primary_dev = MakeDevice();
  auto late_dev = MakeDevice();
  Fabric fabric;
  auto primary =
      PrimaryRegion::Create(primary_dev.get(), SmallOptions(), ReplicationMode::kSendIndex);
  ASSERT_TRUE(primary.ok());
  // Several partly filled segments, and fewer records than one memtable, so
  // no level exists and the sync is all log phase.
  std::map<std::string, std::string> expect;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 40; ++i) {
      const std::string key = Key(round * 40 + i);
      expect[key] = std::string(50 + i, 'a' + round);
      ASSERT_TRUE((*primary)->Put(key, expect[key]).ok());
    }
    ASSERT_TRUE((*primary)->store()->value_log()->FlushTail().ok());
  }
  ASSERT_TRUE((*primary)->store()->level(1).empty());
  const std::vector<SegmentId> flushed =
      (*primary)->store()->value_log()->FlushedSegmentsSnapshot();
  ASSERT_EQ(flushed.size(), 5u);
  uint64_t prefixes = 0;
  for (SegmentId seg : flushed) {
    const uint64_t prefix = SealedPrefix(primary_dev.get(), seg).size();
    EXPECT_LT(prefix, kSegmentSize / 4);
    prefixes += prefix;
  }

  auto late_buffer = fabric.RegisterBuffer("late", "p0", kSegmentSize);
  auto late = SendIndexBackupRegion::Create(late_dev.get(), SmallOptions(), late_buffer);
  ASSERT_TRUE(late.ok());
  LocalBackupChannel channel(&fabric, "p0", late_buffer, late->get());
  fabric.ResetTraffic();
  ASSERT_TRUE((*primary)->FullSync(&channel).ok());

  // One-sided writes of the prefixes, plus one flush request and ack per
  // segment and the replay-start request and ack.
  const auto control = [](const ReplicationMessage& msg) {
    return MessageWireSize(PaddedPayloadSize(EncodeReplicationMessage(msg).size(), false)) +
           MessageWireSize(PaddedPayloadSize(0, false)) + 2 * kWireOverheadPerWrite;
  };
  EXPECT_EQ(fabric.TotalBytes(), prefixes + flushed.size() * kWireOverheadPerWrite +
                                     flushed.size() * control(FlushLogMsg{}) +
                                     control(SetReplayStartMsg{}));
  EXPECT_EQ(late_dev->stats().WriteBytes(IoClass::kLogFlush), prefixes);

  auto promoted = (*late)->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  for (const auto& [key, value] : expect) {
    auto v = (*promoted)->Get(key);
    ASSERT_TRUE(v.ok()) << key << " " << v.status().ToString();
    EXPECT_EQ(*v, value) << key;
  }
}

// --- SimCluster GC through PrimaryRegion handles -----------------------------------

TEST(SimClusterGcTest, RegionGcKeepsClusterConsistent) {
  SimClusterOptions options;
  options.num_servers = 3;
  options.num_regions = 2;
  options.replication_factor = 2;
  options.mode = ReplicationMode::kSendIndex;
  options.kv_options.l0_max_entries = 64;
  options.device_options.segment_size = kSegmentSize;
  options.device_options.max_segments = 1 << 16;
  options.key_space = 1000;
  auto cluster = SimCluster::Create(options);
  ASSERT_TRUE(cluster.ok());
  for (int i = 0; i < 4000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "user%010d", i % 40);
    ASSERT_TRUE((*cluster)->Put(key, std::string(150, 'z')).ok());
  }
  for (int r = 0; r < (*cluster)->num_regions(); ++r) {
    auto freed = (*cluster)->region(r)->GarbageCollect(2);
    ASSERT_TRUE(freed.ok()) << freed.status().ToString();
  }
  std::vector<std::string> keys;
  for (int k = 0; k < 40; ++k) {
    char key[32];
    snprintf(key, sizeof(key), "user%010d", k);
    keys.push_back(key);
  }
  Status s = (*cluster)->VerifyBackupsConsistent(keys);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace tebis
