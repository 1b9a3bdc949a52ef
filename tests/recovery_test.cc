// Checkpoint + local recovery: a store can be rebuilt from its device after a
// process restart — the manifest restores the levels and the flushed log, and
// the L0 replay boundary restores everything down to the last flushed record.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/lsm/btree_builder.h"
#include "src/lsm/kv_store.h"
#include "src/lsm/manifest.h"
#include "src/lsm/value_log.h"
#include "src/storage/block_device.h"

namespace tebis {
namespace {

constexpr uint64_t kSegmentSize = 1 << 16;

BlockDeviceOptions DeviceOptions(const std::string& file = "", bool reopen = false) {
  BlockDeviceOptions opts;
  opts.segment_size = kSegmentSize;
  opts.max_segments = 1 << 16;
  opts.backing_file = file;
  opts.reopen_existing = reopen;
  return opts;
}

KvStoreOptions StoreOptions() {
  KvStoreOptions opts;
  opts.l0_max_entries = 256;
  opts.max_levels = 3;
  opts.auto_checkpoint = true;
  return opts;
}

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", static_cast<unsigned long long>(i));
  return buf;
}

TEST(ManifestTest, EncodeDecodeRoundTrip) {
  Manifest manifest;
  manifest.levels.resize(4);
  manifest.levels[1].root_offset = 0x12345;
  manifest.levels[1].height = 2;
  manifest.levels[1].num_entries = 999;
  manifest.levels[1].segments = {7, 8, 9};
  manifest.levels[1].seg_checksums = {{0x17, 512}, {0x18, 1024}, {0x19, 96}};
  manifest.log_flushed_segments = {1, 2, 3, 4};
  manifest.l0_replay_from = 2;
  std::string encoded = manifest.Encode();
  auto decoded = Manifest::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->levels.size(), 4u);
  EXPECT_EQ(decoded->levels[1].root_offset, 0x12345u);
  EXPECT_EQ(decoded->levels[1].segments, (std::vector<SegmentId>{7, 8, 9}));
  EXPECT_EQ(decoded->levels[1].seg_checksums, manifest.levels[1].seg_checksums);
  EXPECT_EQ(decoded->log_flushed_segments, (std::vector<SegmentId>{1, 2, 3, 4}));
  EXPECT_EQ(decoded->l0_replay_from, 2u);

  // Every level carries one checksum per segment: an image listing none, or
  // one too few, for a non-empty level is corrupt.
  for (const size_t count : {size_t{0}, manifest.levels[1].segments.size() - 1}) {
    Manifest short_list = manifest;
    short_list.levels[1].seg_checksums.resize(count);
    auto rejected = Manifest::Decode(short_list.Encode());
    ASSERT_FALSE(rejected.ok()) << count << " checksums accepted";
    EXPECT_TRUE(rejected.status().IsCorruption()) << rejected.status().ToString();
  }
}

TEST(ManifestTest, CorruptionDetected) {
  Manifest manifest;
  manifest.levels.resize(2);
  std::string encoded = manifest.Encode();
  encoded[encoded.size() / 2] ^= 0x10;
  EXPECT_TRUE(Manifest::Decode(encoded).status().IsCorruption());
  EXPECT_FALSE(Manifest::Decode(Slice(encoded.data(), 3)).ok());
}

TEST(RecoveryTest, SameDeviceCheckpointRecover) {
  // Simulates a crash where the device object survives (crash of the engine,
  // not the machine): recover from the checkpoint on the same device.
  auto dev = BlockDevice::Create(DeviceOptions());
  ASSERT_TRUE(dev.ok());
  std::map<std::string, std::string> expected;
  SegmentId superblock = kInvalidSegment;
  {
    auto store = KvStore::Create(dev->get(), StoreOptions());
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 2000; ++i) {
      std::string value = "v-" + std::to_string(i);
      ASSERT_TRUE((*store)->Put(Key(i % 500), value).ok());
      expected[Key(i % 500)] = value;
    }
    // Everything up to the last flush is recoverable; force a flush + final
    // checkpoint so the whole dataset is durable.
    ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
    auto checkpoint = (*store)->Checkpoint();
    ASSERT_TRUE(checkpoint.ok());
    superblock = *checkpoint;
    // The store "crashes" here: the unique_ptr dies, memory state is gone.
    // Free the store's segments?? No — a crash does NOT free anything; the
    // device still has them allocated, which is exactly what Recover expects.
  }
  // The same device cannot re-adopt; create the recovered store on a fresh
  // view by using Recover's adoption path against a reopened file instead —
  // covered below. Here we only verify the manifest references live segments.
  std::string image(kSegmentSize, 0);
  ASSERT_TRUE(dev->get()
                  ->Read(dev->get()->geometry().BaseOffset(superblock), kSegmentSize,
                         image.data(), IoClass::kRecovery)
                  .ok());
  uint32_t length;
  memcpy(&length, image.data(), 4);
  auto manifest = Manifest::Decode(Slice(image.data() + 4, length));
  ASSERT_TRUE(manifest.ok());
  for (SegmentId seg : manifest->log_flushed_segments) {
    EXPECT_TRUE(dev->get()->IsAllocated(seg));
  }
}

TEST(RecoveryTest, CheckpointReadsNoLevelBytes) {
  // The manifest carries every level's segment checksums, which is all
  // recovery checks the levels against, so a checkpoint reads nothing back.
  auto dev = BlockDevice::Create(DeviceOptions());
  ASSERT_TRUE(dev.ok());
  auto store = KvStore::Create(dev->get(), StoreOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "cp-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
  int non_empty = 0;
  for (uint32_t level = 1; level <= StoreOptions().max_levels; ++level) {
    non_empty += !(*store)->level(level).segments.empty();
  }
  ASSERT_GE(non_empty, 2);

  const uint64_t read_before = dev->get()->stats().TotalReadBytes();
  auto checkpoint = (*store)->Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(dev->get()->stats().TotalReadBytes(), read_before);
}

TEST(RecoveryTest, FileBackedFullRestart) {
  const std::string file = testing::TempDir() + "/tebis_recovery.img";
  std::map<std::string, std::string> expected;
  SegmentId superblock = kInvalidSegment;
  {
    auto dev = BlockDevice::Create(DeviceOptions(file));
    ASSERT_TRUE(dev.ok());
    auto store = KvStore::Create(dev->get(), StoreOptions());
    ASSERT_TRUE(store.ok());
    Random rng(3);
    for (int i = 0; i < 3000; ++i) {
      std::string key = Key(rng.Uniform(600));
      std::string value = rng.Bytes(1 + rng.Uniform(120));
      ASSERT_TRUE((*store)->Put(key, value).ok());
      expected[key] = value;
    }
    for (int i = 0; i < 600; i += 5) {
      ASSERT_TRUE((*store)->Delete(Key(i)).ok());
      expected.erase(Key(i));
    }
    ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
    auto checkpoint = (*store)->Checkpoint();
    ASSERT_TRUE(checkpoint.ok());
    superblock = *checkpoint;
    // Process "dies": device and store destroyed; only the file remains.
  }
  {
    auto dev = BlockDevice::Create(DeviceOptions(file, /*reopen=*/true));
    ASSERT_TRUE(dev.ok());
    auto store = KvStore::Recover(dev->get(), StoreOptions(), superblock);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const auto& [key, value] : expected) {
      auto v = (*store)->Get(key);
      ASSERT_TRUE(v.ok()) << key << " " << v.status().ToString();
      EXPECT_EQ(*v, value) << key;
    }
    for (int i = 0; i < 600; i += 5) {
      EXPECT_TRUE((*store)->Get(Key(i)).status().IsNotFound()) << i;
    }
    // The recovered store keeps working: writes, compactions, checkpoints.
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE((*store)->Put(Key(i), "post-recovery-" + std::to_string(i)).ok());
    }
    auto v = (*store)->Get(Key(123));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "post-recovery-123");
  }
}

TEST(RecoveryTest, RecoverTwiceFromSameCheckpointChain) {
  // Crash again after recovery: the auto-checkpoints taken post-recovery keep
  // a valid chain.
  const std::string file = testing::TempDir() + "/tebis_recovery2.img";
  SegmentId superblock;
  {
    auto dev = BlockDevice::Create(DeviceOptions(file));
    ASSERT_TRUE(dev.ok());
    auto store = KvStore::Create(dev->get(), StoreOptions());
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 1500; ++i) {
      ASSERT_TRUE((*store)->Put(Key(i), "gen1").ok());
    }
    ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
    superblock = *(*store)->Checkpoint();
  }
  {
    auto dev = BlockDevice::Create(DeviceOptions(file, true));
    ASSERT_TRUE(dev.ok());
    auto store = KvStore::Recover(dev->get(), StoreOptions(), superblock);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 1500; ++i) {
      ASSERT_TRUE((*store)->Put(Key(i), "gen2").ok());
    }
    ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
    superblock = *(*store)->Checkpoint();
  }
  {
    auto dev = BlockDevice::Create(DeviceOptions(file, true));
    ASSERT_TRUE(dev.ok());
    auto store = KvStore::Recover(dev->get(), StoreOptions(), superblock);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int i = 0; i < 1500; i += 97) {
      auto v = (*store)->Get(Key(i));
      ASSERT_TRUE(v.ok()) << i;
      EXPECT_EQ(*v, "gen2");
    }
  }
}

TEST(RecoveryTest, UnflushedTailIsNotRecoveredLocally) {
  // Documents the durability contract: records only in the in-memory tail are
  // not local state (replicas own them, §3.5).
  const std::string file = testing::TempDir() + "/tebis_recovery3.img";
  SegmentId superblock;
  {
    auto dev = BlockDevice::Create(DeviceOptions(file));
    ASSERT_TRUE(dev.ok());
    auto store = KvStore::Create(dev->get(), StoreOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("durable", "flushed-value").ok());
    ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
    superblock = *(*store)->Checkpoint();
    ASSERT_TRUE((*store)->Put("volatile", "tail-only-value").ok());
    // Crash without flushing.
  }
  auto dev = BlockDevice::Create(DeviceOptions(file, true));
  ASSERT_TRUE(dev.ok());
  auto store = KvStore::Recover(dev->get(), StoreOptions(), superblock);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Get("durable").ok());
  EXPECT_TRUE((*store)->Get("volatile").status().IsNotFound());
}

TEST(RecoveryTest, ReusedLogSegmentRecoversOnlyItsNewPrefix) {
  // A seal writes the tail's used prefix and a pad marker only, so a reused
  // segment keeps its old bytes past the marker. Ghost and fresh records
  // have one size: a replay that walked past the marker would decode ghosts.
  const std::string file = testing::TempDir() + "/tebis_recovery_ghosts.img";
  const std::string value(100, 'v');
  const auto ghost = [](int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "ghost%06d", i);
    return std::string(buf);
  };
  const auto fresh = [](int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "fresh%06d", i);
    return std::string(buf);
  };
  {
    auto dev = BlockDevice::Create(DeviceOptions(file));
    ASSERT_TRUE(dev.ok());
    auto log = ValueLog::Create(dev->get());
    ASSERT_TRUE(log.ok());
    for (int i = 0; (*log)->flushed_segment_count() < 6; ++i) {
      ASSERT_TRUE((*log)->Append(ghost(i), value, false).ok());
    }
  }
  constexpr int kFresh = 150;  // under one memtable: recovery replays them all
  SegmentId superblock;
  SegmentId reused;
  {
    // Nothing adopted: every segment the store allocates is a ghost one.
    auto dev = BlockDevice::Create(DeviceOptions(file, /*reopen=*/true));
    ASSERT_TRUE(dev.ok());
    auto store = KvStore::Create(dev->get(), StoreOptions());
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < kFresh; ++i) {
      ASSERT_TRUE((*store)->Put(fresh(i), value).ok());
    }
    ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
    ASSERT_EQ((*store)->value_log()->flushed_segments().size(), 1u);
    reused = (*store)->value_log()->flushed_segments()[0];
    superblock = *(*store)->Checkpoint();
  }
  auto dev = BlockDevice::Create(DeviceOptions(file, /*reopen=*/true));
  ASSERT_TRUE(dev.ok());
  {
    // The reused segment: the fresh prefix, the marker, then intact ghosts.
    auto probe = BlockDevice::Create(DeviceOptions(file, /*reopen=*/true));
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE((*probe)->AdoptAllocated({reused}).ok());
    std::string image(kSegmentSize, '\0');
    ASSERT_TRUE((*probe)
                    ->Read((*probe)->geometry().BaseOffset(reused), image.size(), image.data(),
                           IoClass::kOther)
                    .ok());
    const size_t record = LogRecordSize(fresh(0).size(), value.size());
    ASSERT_EQ(ValueLog::SealedPrefixLength(image), kFresh * record + sizeof(kPadMarker));
    std::vector<std::string> past;
    ASSERT_TRUE(ValueLog::ForEachRecord(Slice(image.data() + (kFresh + 1) * record,
                                              image.size() - (kFresh + 1) * record),
                                        /*segment_base=*/0,
                                        [&past](const LogRecord& rec) {
                                          past.push_back(rec.key);
                                          return Status::Ok();
                                        })
                    .ok());
    ASSERT_FALSE(past.empty());
    EXPECT_EQ(past[0].substr(0, 5), "ghost");
  }
  auto store = KvStore::Recover(dev->get(), StoreOptions(), superblock);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (int i = 0; i < kFresh; ++i) {
    auto v = (*store)->Get(fresh(i));
    ASSERT_TRUE(v.ok()) << fresh(i) << " " << v.status().ToString();
    EXPECT_EQ(*v, value);
  }
  for (int i = 0; i < 600; i += 13) {
    EXPECT_TRUE((*store)->Get(ghost(i)).status().IsNotFound()) << ghost(i);
  }
  auto all = (*store)->Scan(Slice(), 100000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), static_cast<size_t>(kFresh));
  store->reset();
  std::remove(file.c_str());
}

TEST(IntegrityTest, CleanStorePassesAndCountsEverything) {
  auto dev = BlockDevice::Create(DeviceOptions());
  ASSERT_TRUE(dev.ok());
  auto store = KvStore::Create(dev->get(), StoreOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "int-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->FlushL0().ok());
  auto report = (*store)->CheckIntegrity();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->level_entries_checked, 2000u);
  EXPECT_GE(report->log_records_checked, 2000u);
}

TEST(IntegrityTest, DetectsCorruptedLogRecord) {
  auto dev = BlockDevice::Create(DeviceOptions());
  ASSERT_TRUE(dev.ok());
  auto store = KvStore::Create(dev->get(), StoreOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "victim").ok());
  }
  ASSERT_TRUE((*store)->FlushL0().ok());
  // Flip a byte in the middle of the first flushed log segment.
  SegmentId seg = (*store)->value_log()->flushed_segments()[0];
  uint64_t off = dev->get()->geometry().BaseOffset(seg) + 2000;
  char byte;
  ASSERT_TRUE(dev->get()->Read(off, 1, &byte, IoClass::kOther).ok());
  byte ^= 0x5a;
  ASSERT_TRUE(dev->get()->Write(off, Slice(&byte, 1), IoClass::kOther).ok());
  auto report = (*store)->CheckIntegrity();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCorruption()) << report.status().ToString();
}

TEST(IntegrityTest, DetectsWrongLeafTag) {
  // A tag the builder got wrong passes every CRC, yet Get would never confirm
  // the key; CheckIntegrity compares each entry against its full key.
  auto dev = BlockDevice::Create(DeviceOptions());
  ASSERT_TRUE(dev.ok());
  auto store = KvStore::Create(dev->get(), StoreOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "tagged").ok());
  }
  ASSERT_TRUE((*store)->FlushL0().ok());
  uint32_t level = 1;
  while (level <= StoreOptions().max_levels && (*store)->level(level).empty()) {
    level++;
  }
  ASSERT_LE(level, StoreOptions().max_levels);
  // The first node of a level's first segment is its leftmost leaf.
  const uint64_t leaf = dev->get()->geometry().BaseOffset((*store)->level(level).segments[0]);
  std::string node(kDefaultNodeSize, 0);
  ASSERT_TRUE(dev->get()->Read(leaf, node.size(), node.data(), IoClass::kOther).ok());
  ASSERT_TRUE(LeafNodeView(node.data(), node.size()).IsValid());
  constexpr uint32_t kVictim = 3;
  const size_t tag_at =
      sizeof(NodeHeader) + kVictim * sizeof(LeafEntry) + offsetof(LeafEntry, key_tag);
  node[tag_at] ^= 0x01;
  ASSERT_TRUE(dev->get()->Write(leaf, Slice(node), IoClass::kOther).ok());

  auto report = (*store)->CheckIntegrity();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCorruption()) << report.status().ToString();
  const std::string where = "L" + std::to_string(level) + " entry " + std::to_string(kVictim) + ":";
  EXPECT_NE(report.status().ToString().find(where), std::string::npos)
      << report.status().ToString();
}

TEST(IntegrityTest, DetectsWrongLeafTombstoneFlag) {
  // A leaf's tombstone flag answers Get without a log read, so a flipped flag
  // hides a live key (or serves a deleted one). With the segment CRC fixed
  // up, as if the builder had written the wrong flag, the CRC scrub passes
  // the level; CheckIntegrity compares each entry's flag with its record.
  auto dev = BlockDevice::Create(DeviceOptions());
  ASSERT_TRUE(dev.ok());
  auto log = ValueLog::Create(dev->get());
  ASSERT_TRUE(log.ok());
  BTreeBuilder builder(dev->get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  for (int i = 0; i < 300; ++i) {
    auto appended = (*log)->Append(Key(i), "live-" + std::to_string(i), false);
    ASSERT_TRUE(appended.ok());
    ASSERT_TRUE(builder.Add(Key(i), appended->offset, false).ok());
  }
  ASSERT_TRUE((*log)->FlushTail().ok());
  auto tree = builder.Finish();
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->seg_checksums.size(), tree->segments.size());

  // The first node of the tree's first segment is its leftmost leaf.
  const uint64_t base = dev->get()->geometry().BaseOffset(tree->segments[0]);
  std::string segment(tree->seg_checksums[0].length, 0);
  ASSERT_TRUE(dev->get()->Read(base, segment.size(), segment.data(), IoClass::kOther).ok());
  ASSERT_TRUE(LeafNodeView(segment.data(), kDefaultNodeSize).IsValid());
  constexpr uint32_t kVictim = 3;
  auto* victim = reinterpret_cast<LeafEntry*>(segment.data() + sizeof(NodeHeader)) + kVictim;
  ASSERT_FALSE(victim->tombstone());
  victim->word |= kLeafTombstoneBit;
  ASSERT_TRUE(dev->get()->Write(base, Slice(segment), IoClass::kOther).ok());
  tree->seg_checksums[0].crc = Crc32c(segment.data(), segment.size());

  std::vector<BuiltTree> levels(StoreOptions().max_levels + 1);
  levels[1] = *tree;
  auto store = KvStore::CreateFromParts(dev->get(), StoreOptions(), std::move(*log), levels);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto scrub = (*store)->Scrub();
  ASSERT_TRUE(scrub.ok());
  EXPECT_EQ(scrub->corruptions_found, 0u) << "the fixed-up CRC must pass the CRC scrub";
  EXPECT_TRUE((*store)->Get(Key(kVictim)).status().IsNotFound());

  auto report = (*store)->CheckIntegrity();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCorruption()) << report.status().ToString();
  const std::string where = "L1 entry " + std::to_string(kVictim) + ":";
  EXPECT_NE(report.status().ToString().find(where), std::string::npos)
      << report.status().ToString();
  EXPECT_NE(report.status().ToString().find("tombstone"), std::string::npos)
      << report.status().ToString();
}

TEST(IntegrityTest, RecoveredStorePassesIntegrity) {
  const std::string file = testing::TempDir() + "/tebis_integrity.img";
  SegmentId superblock;
  {
    auto dev = BlockDevice::Create(DeviceOptions(file));
    ASSERT_TRUE(dev.ok());
    auto store = KvStore::Create(dev->get(), StoreOptions());
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 2500; ++i) {
      ASSERT_TRUE((*store)->Put(Key(i % 400), "gen-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
    superblock = *(*store)->Checkpoint();
  }
  auto dev = BlockDevice::Create(DeviceOptions(file, true));
  ASSERT_TRUE(dev.ok());
  auto store = KvStore::Recover(dev->get(), StoreOptions(), superblock);
  ASSERT_TRUE(store.ok());
  auto report = (*store)->CheckIntegrity();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
}

TEST(RecoveryTest, CheckpointAfterGcRecovers) {
  const std::string file = testing::TempDir() + "/tebis_recovery4.img";
  SegmentId superblock;
  std::map<std::string, std::string> expected;
  {
    auto dev = BlockDevice::Create(DeviceOptions(file));
    ASSERT_TRUE(dev.ok());
    KvStoreOptions opts = StoreOptions();
    opts.l0_max_entries = 64;
    auto store = KvStore::Create(dev->get(), opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 3000; ++i) {
      std::string value = "gc-" + std::to_string(i);
      ASSERT_TRUE((*store)->Put(Key(i % 40), value).ok());
      expected[Key(i % 40)] = value;
    }
    auto freed = (*store)->GarbageCollectHead(3);
    ASSERT_TRUE(freed.ok());
    ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
    superblock = *(*store)->Checkpoint();
  }
  auto dev = BlockDevice::Create(DeviceOptions(file, true));
  ASSERT_TRUE(dev.ok());
  KvStoreOptions opts = StoreOptions();
  opts.l0_max_entries = 64;
  auto store = KvStore::Recover(dev->get(), opts, superblock);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (const auto& [key, value] : expected) {
    auto v = (*store)->Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value);
  }
}

// --- torn-write recovery ------------------------------------------------------
// A crash can leave the final write of a segment half-applied. Recovery must
// detect the damage via CRCs and degrade gracefully — replay what is intact,
// never crash, never serve garbage.

TEST(TornWriteTest, TornValueLogTailIsTruncatedNotFatal) {
  auto dev = BlockDevice::Create(DeviceOptions());
  ASSERT_TRUE(dev.ok());
  KvStoreOptions opts = StoreOptions();
  opts.l0_max_entries = 1024;  // keep everything in the log replay region
  auto store = KvStore::Create(dev->get(), opts);
  ASSERT_TRUE(store.ok());
  constexpr int kRecords = 300;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "torn-" + std::to_string(i) + std::string(400, 'v')).ok());
  }
  ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
  auto checkpoint = (*store)->Checkpoint();
  ASSERT_TRUE(checkpoint.ok());
  const auto& flushed = (*store)->value_log()->flushed_segments();
  ASSERT_GE(flushed.size(), 2u) << "need >1 segment so the tear hits only the last";

  // Tear the LAST flushed segment at a random byte: everything from the cut
  // to the segment end never reached the device.
  Random rng(2026);
  const SegmentId last = flushed.back();
  const uint64_t cut = 64 + rng.Uniform(50000);
  std::string zeros(kSegmentSize - cut, 0);
  ASSERT_TRUE(dev->get()
                  ->Write(dev->get()->geometry().BaseOffset(last) + cut, Slice(zeros),
                          IoClass::kOther)
                  .ok());

  // "Reboot": recover on a content clone (clean allocation state, §3.5).
  auto cloned = dev->get()->CloneContents();
  ASSERT_TRUE(cloned.ok());
  auto recovered = KvStore::Recover(cloned->get(), opts, *checkpoint);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // Replay order == insertion order, so the surviving keys form a strict
  // prefix; the torn suffix reads NotFound, never garbage.
  int first_missing = kRecords;
  for (int i = 0; i < kRecords; ++i) {
    auto v = (*recovered)->Get(Key(i));
    if (v.ok()) {
      ASSERT_EQ(first_missing, kRecords) << "key " << i << " present after a missing key";
      EXPECT_EQ(*v, "torn-" + std::to_string(i) + std::string(400, 'v'));
    } else {
      ASSERT_TRUE(v.status().IsNotFound()) << Key(i) << ": " << v.status().ToString();
      if (first_missing == kRecords) first_missing = i;
    }
  }
  EXPECT_GT(first_missing, 0) << "tear destroyed intact earlier segments";
  EXPECT_LT(first_missing, kRecords) << "tear did not actually remove any record";

  // A tear in the MIDDLE of the log (not the final segment) is real data loss
  // under the durability contract and must surface as Corruption, not be
  // silently truncated.
  std::string mid_zeros(kSegmentSize - 64, 0);
  ASSERT_TRUE(dev->get()
                  ->Write(dev->get()->geometry().BaseOffset(flushed.front()) + 64,
                          Slice(mid_zeros), IoClass::kOther)
                  .ok());
  auto cloned2 = dev->get()->CloneContents();
  ASSERT_TRUE(cloned2.ok());
  auto bad = KvStore::Recover(cloned2->get(), opts, *checkpoint);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
}

TEST(TornWriteTest, TornIndexSegmentRebuildsFromValueLog) {
  // The level indexes are redundant with the (per-record CRC'd) value log, so
  // a torn/corrupted index segment — e.g. the last shipped segment of a
  // Send-Index rewrite — is survivable: recovery checks each segment's
  // checksummed prefix against the manifest's checksum and, on a mismatch,
  // rebuilds the whole index by replaying the log. Bytes past the prefix
  // belong to no node, so damage there keeps the levels.
  auto dev = BlockDevice::Create(DeviceOptions());
  ASSERT_TRUE(dev.ok());
  auto store = KvStore::Create(dev->get(), StoreOptions());
  ASSERT_TRUE(store.ok());
  constexpr int kRecords = 3000;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "lv-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->value_log()->FlushTail().ok());
  auto checkpoint = (*store)->Checkpoint();
  ASSERT_TRUE(checkpoint.ok());

  // The victim: the deepest level's last segment whose checksummed prefix
  // leaves room for a 64-byte flip after it.
  constexpr uint64_t kFlip = 64;
  SegmentId victim = kInvalidSegment;
  uint64_t prefix = 0;
  for (uint32_t level = StoreOptions().max_levels; level >= 1 && victim == kInvalidSegment;
       --level) {
    const BuiltTree& tree = (*store)->level(level);
    for (size_t s = tree.segments.size(); s-- > 0;) {
      if (tree.seg_checksums[s].length >= kFlip &&
          tree.seg_checksums[s].length + kFlip <= kSegmentSize) {
        victim = tree.segments[s];
        prefix = tree.seg_checksums[s].length;
        break;
      }
    }
  }
  ASSERT_NE(victim, kInvalidSegment) << "no on-device level segment to corrupt";

  Random rng(77);
  const struct {
    const char* name;
    uint64_t offset;  // into the victim segment
    bool levels_kept;
  } kCases[] = {
      {"inside the checksummed prefix", rng.Uniform(prefix - kFlip + 1), false},
      {"past the checksummed prefix", prefix + rng.Uniform(kSegmentSize - prefix - kFlip + 1),
       true},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    // Flip, clone the damaged image, then flip back for the next case.
    const uint64_t off = dev->get()->geometry().BaseOffset(victim) + c.offset;
    char bytes[kFlip];
    ASSERT_TRUE(dev->get()->Read(off, sizeof(bytes), bytes, IoClass::kOther).ok());
    for (char& b : bytes) b ^= 0x5a;
    ASSERT_TRUE(dev->get()->Write(off, Slice(bytes, sizeof(bytes)), IoClass::kOther).ok());
    auto cloned = dev->get()->CloneContents();
    ASSERT_TRUE(cloned.ok());
    for (char& b : bytes) b ^= 0x5a;
    ASSERT_TRUE(dev->get()->Write(off, Slice(bytes, sizeof(bytes)), IoClass::kOther).ok());

    auto recovered = KvStore::Recover(cloned->get(), StoreOptions(), *checkpoint);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    for (uint32_t level = 1; level <= StoreOptions().max_levels; ++level) {
      if (c.levels_kept) {
        EXPECT_EQ((*recovered)->level(level).segments, (*store)->level(level).segments)
            << "L" << level;
      } else {
        EXPECT_TRUE((*recovered)->level(level).empty()) << "L" << level;
      }
    }
    // Nothing lost: every record reads back, from the levels or the log.
    for (int i = 0; i < kRecords; ++i) {
      auto v = (*recovered)->Get(Key(i));
      ASSERT_TRUE(v.ok()) << Key(i) << ": " << v.status().ToString();
      EXPECT_EQ(*v, "lv-" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace tebis
