// PR 7 shipped-bloom-filter suite (ctest label `fast-filters`; tools/check.sh
// runs it plain and under TSan):
//   * filter block unit tests — round trip, false-positive bound, prefix
//     probes, corruption rejection
//   * manifest versioning — the manifest carries filter bytes, pre-v5
//     images fail decode, checkpoint/recover preserves filters
//   * shipping — the backup installs the primary's exact filter bytes,
//     consults them on reads, and keeps them across promotion and FullSync
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/lsm/bloom_filter.h"
#include "src/lsm/format.h"
#include "src/lsm/kv_store.h"
#include "src/lsm/manifest.h"
#include "src/net/fabric.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"
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
  opts.growth_factor = 4;
  opts.max_levels = 3;
  return opts;
}

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", static_cast<unsigned long long>(i));
  return buf;
}

// --- filter block unit tests -------------------------------------------------

TEST(FilterBlockTest, RoundTripNoFalseNegatives) {
  BloomFilterBuilder builder(/*bits_per_key=*/10);
  for (uint64_t i = 0; i < 4000; ++i) {
    builder.AddKey(Key(i));
  }
  EXPECT_EQ(builder.num_keys(), 4000u);
  std::string block = builder.Finish();
  ASSERT_FALSE(block.empty());

  BloomFilterView view;
  ASSERT_TRUE(BloomFilterView::Parse(block, &view).ok());
  EXPECT_EQ(view.num_keys(), 4000u);
  // Bloom filters never produce false negatives.
  for (uint64_t i = 0; i < 4000; ++i) {
    EXPECT_TRUE(view.MayContain(Key(i))) << i;
    EXPECT_TRUE(view.MayContainPrefix(Key(i))) << i;
  }
}

TEST(FilterBlockTest, FalsePositiveRateBounded) {
  BloomFilterBuilder builder(/*bits_per_key=*/10);
  for (uint64_t i = 0; i < 4000; ++i) {
    builder.AddKey(Key(i));
  }
  std::string block = builder.Finish();
  BloomFilterView view;
  ASSERT_TRUE(BloomFilterView::Parse(block, &view).ok());

  // Disjoint key space: theoretical FPR at 10 bits/key is ~0.9%; assert a
  // loose 3% so hash quality regressions fail loudly without flaking.
  uint64_t false_positives = 0;
  constexpr uint64_t kProbes = 10000;
  for (uint64_t i = 0; i < kProbes; ++i) {
    if (view.MayContain(Key(1'000'000 + i))) {
      ++false_positives;
    }
  }
  EXPECT_LT(false_positives, kProbes * 3 / 100) << "FPR " << false_positives << "/" << kProbes;
}

TEST(FilterBlockTest, PrefixProbesSkipAbsentPrefixes) {
  // All keys share per-thousand prefixes: Key(i) = "key%010u", so the first
  // kFilterPrefixSize (12) bytes fix i / 10.
  static_assert(kFilterPrefixSize == 12, "Key() prefix math assumes 12-byte prefixes");
  BloomFilterBuilder builder(/*bits_per_key=*/10);
  for (uint64_t i = 0; i < 2000; ++i) {
    builder.AddKey(Key(i));
  }
  std::string block = builder.Finish();
  BloomFilterView view;
  ASSERT_TRUE(BloomFilterView::Parse(block, &view).ok());

  // Present prefixes always answer maybe.
  for (uint64_t i = 0; i < 2000; i += 37) {
    std::string key = Key(i);
    EXPECT_TRUE(view.MayContainPrefix(Slice(key.data(), kFilterPrefixSize)));
  }
  // Absent prefixes answer no almost always (they are subject to the same
  // false-positive rate as point probes).
  uint64_t negatives = 0;
  constexpr uint64_t kProbes = 1000;
  for (uint64_t i = 0; i < kProbes; ++i) {
    std::string probe = Key(2'000'000 + i * 10);
    if (!view.MayContainPrefix(Slice(probe.data(), kFilterPrefixSize))) {
      ++negatives;
    }
  }
  EXPECT_GT(negatives, kProbes * 9 / 10);
}

TEST(FilterBlockTest, EmptyBuilderProducesEmptyBlock) {
  BloomFilterBuilder builder;
  EXPECT_TRUE(builder.Finish().empty());
}

TEST(FilterBlockTest, ParseRejectsCorruption) {
  BloomFilterView view;
  // Junk and truncation.
  EXPECT_FALSE(BloomFilterView::Parse(Slice("not a filter block"), &view).ok());
  EXPECT_FALSE(BloomFilterView::Parse(Slice(), &view).ok());

  BloomFilterBuilder builder;
  for (uint64_t i = 0; i < 100; ++i) {
    builder.AddKey(Key(i));
  }
  std::string block = builder.Finish();
  ASSERT_TRUE(BloomFilterView::Parse(block, &view).ok());
  for (size_t cut = 0; cut < block.size(); cut += 7) {
    EXPECT_FALSE(BloomFilterView::Parse(Slice(block.data(), cut), &view).ok()) << cut;
  }

  // A flipped bit in the body fails the CRC check — but is accepted when the
  // caller vouches for the bytes (hot read paths verify once at install).
  std::string corrupt = block;
  corrupt[corrupt.size() / 2] ^= 0x10;
  EXPECT_FALSE(BloomFilterView::Parse(corrupt, &view).ok());
  EXPECT_TRUE(BloomFilterView::Parse(corrupt, &view, /*verify_crc=*/false).ok());
}

// --- manifest versioning -----------------------------------------------------

Manifest MakeManifestWithFilters() {
  Manifest m;
  m.levels.resize(3);
  for (int level = 1; level <= 2; ++level) {
    BuiltTree& tree = m.levels[level];
    tree.root_offset = 0x1000 * level;
    tree.height = 1;
    tree.num_entries = 100 * level;
    tree.segments = {SegmentId(10 * level)};
    tree.seg_checksums = {{static_cast<uint32_t>(0xabcd + level), 4096}};
    tree.bytes_written = 4096;
    BloomFilterBuilder builder;
    for (uint64_t i = 0; i < tree.num_entries; ++i) {
      builder.AddKey(Key(level * 100000 + i));
    }
    tree.filter = std::make_shared<const std::string>(builder.Finish());
  }
  m.log_flushed_segments = {SegmentId(1), SegmentId(2)};
  m.l0_replay_from = 1;
  return m;
}

TEST(ManifestVersionTest, V3RoundTripsFilterBytes) {
  Manifest m = MakeManifestWithFilters();
  auto decoded = Manifest::Decode(m.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->levels.size(), 3u);
  EXPECT_EQ(decoded->levels[0].filter, nullptr);
  for (int level = 1; level <= 2; ++level) {
    ASSERT_NE(decoded->levels[level].filter, nullptr) << level;
    EXPECT_EQ(*decoded->levels[level].filter, *m.levels[level].filter) << level;
    EXPECT_EQ(decoded->levels[level].num_entries, m.levels[level].num_entries);
  }
}

TEST(ManifestVersionTest, PreTagVersionsFailDecode) {
  // Manifests older than v5 name leaves without key tags. Decoding one must
  // fail outright rather than hand back trees whose long keys would miss.
  const std::string encoded = MakeManifestWithFilters().Encode();
  ASSERT_TRUE(Manifest::Decode(encoded).ok());
  for (uint32_t version = 2; version < kMinManifestVersion; ++version) {
    // Re-stamp the version (after the magic) with a matching trailing CRC, so
    // the version is the only thing wrong with the image.
    std::string old = encoded;
    memcpy(old.data() + 4, &version, sizeof(version));
    const size_t body_size = old.size() - 4;
    const uint32_t crc = Crc32c(old.data(), body_size);
    memcpy(old.data() + body_size, &crc, sizeof(crc));

    auto decoded = Manifest::Decode(old);
    ASSERT_FALSE(decoded.ok()) << "v" << version;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << "v" << version << ": " << decoded.status().ToString();
  }
}

TEST(ManifestVersionTest, CheckpointRecoverPreservesFilters) {
  // Full restart: only the backing file survives, Recover adopts its segments.
  const std::string file = testing::TempDir() + "/tebis_filters_recovery.img";
  KvStoreOptions opts = SmallOptions();
  std::map<std::string, std::string> model;
  SegmentId checkpoint = kInvalidSegment;
  {
    BlockDeviceOptions dev_opts;
    dev_opts.segment_size = kSegmentSize;
    dev_opts.max_segments = 1 << 16;
    dev_opts.backing_file = file;
    auto device = BlockDevice::Create(dev_opts);
    ASSERT_TRUE(device.ok());
    auto store = KvStore::Create(device->get(), opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 3000; ++i) {
      std::string key = Key(i % 900);
      std::string value = "v" + std::to_string(i);
      ASSERT_TRUE((*store)->Put(key, value).ok());
      model[key] = value;
    }
    ASSERT_TRUE((*store)->FlushL0().ok());
    ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
    auto seg = (*store)->Checkpoint();
    ASSERT_TRUE(seg.ok());
    checkpoint = *seg;
  }

  BlockDeviceOptions reopen_opts;
  reopen_opts.segment_size = kSegmentSize;
  reopen_opts.max_segments = 1 << 16;
  reopen_opts.backing_file = file;
  reopen_opts.reopen_existing = true;
  auto device = BlockDevice::Create(reopen_opts);
  ASSERT_TRUE(device.ok());
  auto recovered = KvStore::Recover(device->get(), opts, checkpoint);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  bool saw_filter = false;
  for (uint32_t i = 1; i <= opts.max_levels; ++i) {
    const BuiltTree& tree = (*recovered)->level(i);
    if (tree.empty()) continue;
    ASSERT_NE(tree.filter, nullptr) << "level " << i;
    BloomFilterView view;
    EXPECT_TRUE(BloomFilterView::Parse(Slice(*tree.filter), &view).ok());
    saw_filter = true;
  }
  EXPECT_TRUE(saw_filter);

  for (const auto& [key, value] : model) {
    auto got = (*recovered)->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
  // Misses on the recovered store are answered by the recovered filters.
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE((*recovered)->Get(Key(5'000'000 + i)).status().IsNotFound());
  }
  EXPECT_GT(Metric(**recovered, "kv.filter_negatives"), 0u);
}

TEST(ManifestVersionTest, FiltersOffBuildsNullFilters) {
  auto device = MakeDevice();
  KvStoreOptions opts = SmallOptions();
  opts.enable_filters = false;
  auto store = KvStore::Create(device.get(), opts);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "v").ok());
  }
  ASSERT_TRUE((*store)->FlushL0().ok());
  for (uint32_t i = 1; i <= opts.max_levels; ++i) {
    EXPECT_EQ((*store)->level(i).filter, nullptr) << i;
  }
  // Reads stay correct, they just never skip.
  EXPECT_TRUE((*store)->Get(Key(17)).ok());
  EXPECT_TRUE((*store)->Get(Key(4'000'000)).status().IsNotFound());
  EXPECT_EQ(Metric(**store, "kv.filter_checks"), 0u);
}

// --- primary read path -------------------------------------------------------

TEST(PrimaryFilterTest, NegativeGetsSkipLevels) {
  auto device = MakeDevice();
  auto store = KvStore::Create(device.get(), SmallOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->FlushL0().ok());

  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE((*store)->Get(Key(9'000'000 + i)).status().IsNotFound());
  }
  const uint64_t checks = Metric(**store, "kv.filter_checks");
  const uint64_t negatives = Metric(**store, "kv.filter_negatives");
  EXPECT_GT(checks, 0u);
  EXPECT_GT(negatives, 0u);
  // Nearly all absent-key probes are answered by the filter.
  EXPECT_GT(negatives * 10, checks * 5);

  // Present keys still resolve (no false negatives through the gate).
  for (int i = 0; i < 3000; i += 97) {
    EXPECT_TRUE((*store)->Get(Key(i)).ok()) << i;
  }
}

TEST(PrimaryFilterTest, ScanPrefixSkipsAbsentPrefixes) {
  auto device = MakeDevice();
  auto store = KvStore::Create(device.get(), SmallOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->FlushL0().ok());

  // Key(i) fixes the first 12 bytes to "key%09u" of i/10: prefix "key000000012"
  // selects exactly i = 120..129.
  std::string prefix = Key(120).substr(0, kFilterPrefixSize);
  auto rows = (*store)->ScanPrefix(prefix, /*limit=*/100);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*rows)[i].key, Key(120 + i));
  }

  // An absent prefix comes back empty and the filters answered some levels.
  const uint64_t checks_before = Metric(**store, "kv.filter_checks");
  std::string absent = Key(8'000'000).substr(0, kFilterPrefixSize);
  auto empty_rows = (*store)->ScanPrefix(absent, /*limit=*/100);
  ASSERT_TRUE(empty_rows.ok());
  EXPECT_TRUE(empty_rows->empty());
  EXPECT_GT(Metric(**store, "kv.filter_checks"), checks_before);
}

// --- shipped filters ---------------------------------------------------------

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

void LoadAndFlush(SendIndexCluster* cluster, int num_writes, int key_space) {
  for (int i = 0; i < num_writes; ++i) {
    ASSERT_TRUE(cluster->primary->Put(Key(i % key_space), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster->primary->FlushL0().ok());
}

// Counts levels where primary and backup both carry a filter and the bytes
// are identical; fails if any shipped level differs.
int CountMatchingFilterLevels(const SendIndexCluster& cluster, uint32_t max_levels) {
  int matching = 0;
  for (uint32_t i = 1; i <= max_levels; ++i) {
    const BuiltTree& primary_tree = cluster.primary->store()->level(i);
    const BuiltTree& backup_tree = cluster.backups[0]->level(i);
    EXPECT_EQ(primary_tree.empty(), backup_tree.empty()) << "level " << i;
    if (primary_tree.empty()) continue;
    EXPECT_NE(primary_tree.filter, nullptr) << "level " << i;
    EXPECT_NE(backup_tree.filter, nullptr) << "level " << i;
    if (primary_tree.filter == nullptr || backup_tree.filter == nullptr) continue;
    // Send-Index ships the primary's exact block — byte-identical, not merely
    // equivalent (fingerprints are offset-free, so no rewrite happens).
    EXPECT_EQ(*primary_tree.filter, *backup_tree.filter) << "level " << i;
    ++matching;
  }
  return matching;
}

TEST(ShippedFilterTest, BackupInstallsPrimaryExactFilterBytes) {
  KvStoreOptions opts = SmallOptions();
  auto cluster = MakeSendIndexCluster(1, opts);
  LoadAndFlush(&cluster, 3000, 800);
  ASSERT_GT(Metric(*cluster.primary->store(), "kv.compactions"), 0u);

  EXPECT_GT(CountMatchingFilterLevels(cluster, opts.max_levels), 0);
  EXPECT_GT(Metric(*cluster.backups[0], "backup.filter_blocks_installed"), 0u);
}

TEST(ShippedFilterTest, BackupNegativeLookupsUseShippedFilters) {
  KvStoreOptions opts = SmallOptions();
  auto cluster = MakeSendIndexCluster(1, opts);
  LoadAndFlush(&cluster, 3000, 800);

  // Equivalent answers on both sides: hits hit, misses miss.
  for (int i = 0; i < 800; i += 13) {
    auto primary_got = cluster.primary->Get(Key(i));
    auto backup_got = cluster.backups[0]->DebugGet(Key(i));
    ASSERT_TRUE(primary_got.ok()) << i;
    ASSERT_TRUE(backup_got.ok()) << i;
    EXPECT_EQ(*primary_got, *backup_got) << i;
  }
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(cluster.backups[0]->DebugGet(Key(7'000'000 + i)).status().IsNotFound());
  }
  const uint64_t checks = Metric(*cluster.backups[0], "backup.filter_checks");
  const uint64_t negatives = Metric(*cluster.backups[0], "backup.filter_negatives");
  EXPECT_GT(checks, 0u);
  EXPECT_GT(negatives, 0u);
  EXPECT_GT(negatives * 10, checks * 5);
}

TEST(ShippedFilterTest, PromotedStoreCarriesShippedFilters) {
  KvStoreOptions opts = SmallOptions();
  auto cluster = MakeSendIndexCluster(1, opts);
  LoadAndFlush(&cluster, 3000, 800);

  auto promoted = cluster.backups[0]->Promote();
  ASSERT_TRUE(promoted.ok());
  bool saw_filter = false;
  for (uint32_t i = 1; i <= opts.max_levels; ++i) {
    const BuiltTree& tree = (*promoted)->level(i);
    if (tree.empty()) continue;
    ASSERT_NE(tree.filter, nullptr) << "level " << i;
    saw_filter = true;
  }
  EXPECT_TRUE(saw_filter);

  // The promoted store's own read path consults the shipped filters.
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE((*promoted)->Get(Key(6'000'000 + i)).status().IsNotFound());
  }
  EXPECT_GT(Metric(**promoted, "kv.filter_negatives"), 0u);
  EXPECT_TRUE((*promoted)->Get(Key(5)).ok());
}

TEST(ShippedFilterTest, FullSyncReattachInstallsFilters) {
  // A backup attached after the fact receives existing levels via FullSync's
  // synthetic compactions — filters included.
  KvStoreOptions opts = SmallOptions();
  auto cluster = MakeSendIndexCluster(0, opts);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(i % 800), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster.primary->FlushL0().ok());

  cluster.backup_devices.push_back(MakeDevice());
  auto buffer = cluster.fabric->RegisterBuffer("late-backup", "primary0", kSegmentSize);
  cluster.buffers.push_back(buffer);
  auto backup = SendIndexBackupRegion::Create(cluster.backup_devices.back().get(), opts, buffer);
  ASSERT_TRUE(backup.ok());
  cluster.backups.push_back(std::move(*backup));
  auto channel = std::make_unique<LocalBackupChannel>(
      cluster.fabric.get(), "primary0", buffer, cluster.backups.back().get());
  ASSERT_TRUE(cluster.primary->FullSync(channel.get()).ok());
  cluster.primary->AddBackup(std::move(channel));

  EXPECT_GT(CountMatchingFilterLevels(cluster, opts.max_levels), 0);
  EXPECT_GT(Metric(*cluster.backups[0], "backup.filter_blocks_installed"), 0u);

  // New traffic keeps shipping filters to the re-attached backup.
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(cluster.primary->Put(Key(1000 + i % 800), "w" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster.primary->FlushL0().ok());
  EXPECT_GT(CountMatchingFilterLevels(cluster, opts.max_levels), 0);
}

TEST(ShippedFilterTest, FiltersOffShipsNothingAndStaysCorrect) {
  KvStoreOptions opts = SmallOptions();
  opts.enable_filters = false;
  auto cluster = MakeSendIndexCluster(1, opts);
  LoadAndFlush(&cluster, 3000, 800);

  for (uint32_t i = 1; i <= opts.max_levels; ++i) {
    EXPECT_EQ(cluster.backups[0]->level(i).filter, nullptr) << i;
  }
  EXPECT_EQ(Metric(*cluster.backups[0], "backup.filter_blocks_installed"), 0u);
  EXPECT_EQ(Metric(*cluster.primary, "repl.filter_blocks_shipped"), 0u);

  // Presence-gated reads: no filter, no skip, same answers.
  EXPECT_TRUE(cluster.backups[0]->DebugGet(Key(5)).ok());
  EXPECT_TRUE(cluster.backups[0]->DebugGet(Key(7'000'000)).status().IsNotFound());
  EXPECT_EQ(Metric(*cluster.backups[0], "backup.filter_checks"), 0u);
}

TEST(ShippedFilterTest, ShipCountersTrackFilterTraffic) {
  KvStoreOptions opts = SmallOptions();
  auto cluster = MakeSendIndexCluster(2, opts);
  LoadAndFlush(&cluster, 3000, 800);

  EXPECT_GT(Metric(*cluster.primary, "repl.filter_blocks_shipped"), 0u);
  EXPECT_GT(Metric(*cluster.primary, "repl.filter_bytes_shipped"), 0u);
  // Both backups installed blocks.
  EXPECT_GT(Metric(*cluster.backups[0], "backup.filter_blocks_installed"), 0u);
  EXPECT_GT(Metric(*cluster.backups[1], "backup.filter_blocks_installed"), 0u);
}

}  // namespace
}  // namespace tebis
