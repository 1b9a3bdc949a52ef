// Edge cases and deeper scenarios across module boundaries.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/net/fabric.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"
#include "src/ycsb/sim_cluster.h"

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
  ASSERT_TRUE((*backup)->Handle(FlushLogMsg{.primary_segment = log_seg}).ok());

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
    return (*backup)->Handle(IndexSegmentMsg{.compaction_id = 1,
                                             .dst_level = 1,
                                             .tree_level = tree_level,
                                             .primary_segment = seg,
                                             .data = Slice(bytes),
                                             .payload_crc = Crc32c(bytes.data(), bytes.size())});
  };
  ASSERT_TRUE(
      (*backup)->Handle(CompactionBeginMsg{.compaction_id = 1, .src_level = 0, .dst_level = 1})
          .ok());
  ASSERT_TRUE(ship(1, index_seg, index_segment).ok());
  ASSERT_TRUE(ship(0, leaf_seg, leaf_segment).ok());
  BuiltTree primary_tree;
  primary_tree.root_offset = geometry.BaseOffset(index_seg);
  primary_tree.height = 1;
  primary_tree.num_entries = 1;
  primary_tree.segments = {leaf_seg, index_seg};
  ASSERT_TRUE((*backup)
                  ->Handle(CompactionEndMsg{
                      .compaction_id = 1, .src_level = 0, .dst_level = 1, .tree = primary_tree})
                  .ok());

  // The backup serves the key through its rewritten two-level tree.
  auto value = (*backup)->DebugGet("only-key");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, "only-value");
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
