#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/clock.h"
#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/lsm/bloom_filter.h"
#include "src/lsm/btree_builder.h"
#include "src/lsm/btree_node.h"
#include "src/lsm/btree_reader.h"
#include "src/lsm/compaction.h"
#include "src/lsm/format.h"
#include "src/lsm/index_codec.h"
#include "src/lsm/kv_store.h"
#include "src/lsm/memtable.h"
#include "src/lsm/page_cache.h"
#include "src/lsm/value_log.h"
#include "src/storage/block_device.h"
#include "tests/metric_reader.h"

namespace tebis {
namespace {

std::unique_ptr<BlockDevice> MakeDevice(uint64_t segment_size = 1 << 16,
                                        uint64_t max_segments = 4096) {
  BlockDeviceOptions opts;
  opts.segment_size = segment_size;
  opts.max_segments = max_segments;
  auto dev = BlockDevice::Create(opts);
  EXPECT_TRUE(dev.ok());
  return std::move(*dev);
}

// Zero-pads numbers so lexicographic order == numeric order.
std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%010llu", static_cast<unsigned long long>(i));
  return buf;
}

// --- ValueLog -----------------------------------------------------------------

TEST(ValueLogTest, AppendAndReadBack) {
  auto dev = MakeDevice();
  auto log = ValueLog::Create(dev.get());
  ASSERT_TRUE(log.ok());
  auto res = (*log)->Append("alpha", "value-1", false);
  ASSERT_TRUE(res.ok());
  LogRecord rec;
  ASSERT_TRUE((*log)->ReadRecord(res->offset, &rec, nullptr, IoClass::kLookup).ok());
  EXPECT_EQ(rec.key, "alpha");
  EXPECT_EQ(rec.value, "value-1");
  EXPECT_FALSE(rec.tombstone);
}

TEST(ValueLogTest, TombstoneRoundTrip) {
  auto dev = MakeDevice();
  auto log = ValueLog::Create(dev.get());
  ASSERT_TRUE(log.ok());
  auto res = (*log)->Append("gone", "", true);
  ASSERT_TRUE(res.ok());
  LogRecord rec;
  ASSERT_TRUE((*log)->ReadRecord(res->offset, &rec, nullptr, IoClass::kLookup).ok());
  EXPECT_TRUE(rec.tombstone);
  std::string key;
  bool tomb = false;
  ASSERT_TRUE((*log)->ReadKey(res->offset, 4, &key, &tomb, nullptr, IoClass::kLookup).ok());
  EXPECT_EQ(key, "gone");
  EXPECT_TRUE(tomb);
}

TEST(ValueLogTest, RejectsBadKeySizes) {
  auto dev = MakeDevice();
  auto log = ValueLog::Create(dev.get());
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE((*log)->Append("", "v", false).ok());
  EXPECT_FALSE((*log)->Append(std::string(kMaxKeySize + 1, 'k'), "v", false).ok());
}

TEST(ValueLogTest, RejectsRecordLargerThanSegment) {
  auto dev = MakeDevice(4096);
  auto log = ValueLog::Create(dev.get());
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE((*log)->Append("k", std::string(5000, 'v'), false).ok());
}

TEST(ValueLogTest, SegmentRolloverAndReadFromFlushed) {
  auto dev = MakeDevice(4096);
  auto log = ValueLog::Create(dev.get());
  ASSERT_TRUE(log.ok());
  std::vector<uint64_t> offsets;
  const std::string value(500, 'v');
  for (int i = 0; i < 40; ++i) {  // ~20KB total => several 4KB segments
    auto res = (*log)->Append(Key(i), value, false);
    ASSERT_TRUE(res.ok());
    offsets.push_back(res->offset);
  }
  EXPECT_GE((*log)->flushed_segments().size(), 3u);
  for (int i = 0; i < 40; ++i) {
    LogRecord rec;
    ASSERT_TRUE((*log)->ReadRecord(offsets[i], &rec, nullptr, IoClass::kLookup).ok());
    EXPECT_EQ(rec.key, Key(i));
    EXPECT_EQ(rec.value, value);
  }
}

class TrackingLogObserver : public ValueLogObserver {
 public:
  void OnAppend(SegmentId seg, uint64_t off, Slice bytes, size_t record_count) override {
    appends += static_cast<int>(record_count);
    append_bytes += bytes.size();
  }
  void OnTailFlush(SegmentId seg, Slice bytes) override {
    flushes++;
    flushed_segments.push_back(seg);
    sealed.push_back(bytes.ToString());
  }
  int appends = 0;
  uint64_t append_bytes = 0;
  int flushes = 0;
  std::vector<SegmentId> flushed_segments;
  std::vector<std::string> sealed;  // the bytes each seal handed over
};

uint32_t LastWord(const std::string& bytes) {
  uint32_t word;
  memcpy(&word, bytes.data() + bytes.size() - sizeof(word), sizeof(word));
  return word;
}

TEST(ValueLogTest, ObserverSeesAppendsAndFlushes) {
  auto dev = MakeDevice(4096);
  auto log = ValueLog::Create(dev.get());
  ASSERT_TRUE(log.ok());
  TrackingLogObserver obs;
  (*log)->set_observer(&obs);
  const std::string value(1000, 'v');
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*log)->Append(Key(i), value, false).ok());
  }
  EXPECT_EQ(obs.appends, 8);
  EXPECT_GE(obs.flushes, 1);
  EXPECT_EQ(obs.flushed_segments, (*log)->flushed_segments());
  // A seal by fill hands over exactly what it wrote: the records that fit
  // (three 1 KiB records per 4 KiB segment) and the pad marker, never the
  // unused rest of the segment.
  const size_t record = LogRecordSize(Key(0).size(), value.size());
  for (const std::string& sealed : obs.sealed) {
    EXPECT_EQ(sealed.size(), 3 * record + sizeof(kPadMarker));
    EXPECT_EQ(LastWord(sealed), kPadMarker);
    EXPECT_EQ(ValueLog::SealedPrefixLength(sealed), sealed.size());
  }
}

TEST(ValueLogTest, PartialTailFlushWritesUsedPrefixAndPadMarkerOnly) {
  auto dev = MakeDevice(4096);  // byte-accurate accounting
  auto log = ValueLog::Create(dev.get());
  ASSERT_TRUE(log.ok());
  TrackingLogObserver obs;
  (*log)->set_observer(&obs);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*log)->Append(Key(i), "value" + std::to_string(i), false).ok());
  }
  const uint64_t used = (*log)->tail_used();
  const SegmentId segment = (*log)->tail_segment();
  ASSERT_TRUE((*log)->FlushTail().ok());

  EXPECT_EQ(dev->stats().WriteBytes(IoClass::kLogFlush), used + sizeof(kPadMarker));
  ASSERT_EQ(obs.sealed.size(), 1u);
  const std::string& sealed = obs.sealed[0];
  ASSERT_EQ(sealed.size(), used + sizeof(kPadMarker));
  EXPECT_EQ(LastWord(sealed), kPadMarker);
  // The observer's slice is the device's prefix, byte for byte.
  std::string on_device(sealed.size(), '\0');
  ASSERT_TRUE(dev->Read(dev->geometry().BaseOffset(segment), on_device.size(), on_device.data(),
                        IoClass::kOther)
                  .ok());
  EXPECT_EQ(on_device, sealed);
  EXPECT_EQ(ValueLog::SealedPrefixLength(on_device), sealed.size());
}

TEST(ValueLogTest, SealedPrefixLengthStopsAtMarkerOrDamage) {
  std::string image(4096, '\0');
  EXPECT_EQ(ValueLog::SealedPrefixLength(image), sizeof(kPadMarker));  // empty, unsealed
  // A header whose sizes overrun the image: the whole image.
  const uint32_t huge[2] = {10, 1u << 30};
  memcpy(image.data(), huge, sizeof(huge));
  EXPECT_EQ(ValueLog::SealedPrefixLength(image), image.size());
}

// A walk of a flushed segment reads its sealed prefix in growing chunks that
// stop at the pad marker: a 3-record segment costs one chunk, not a segment.
TEST(ValueLogTest, WalkingASealedSegmentReadsItsPrefixNotTheSegment) {
  constexpr uint64_t kSegment = 1 << 18;
  auto dev = MakeDevice(kSegment);
  auto log = ValueLog::Create(dev.get());
  ASSERT_TRUE(log.ok());
  TrackingLogObserver obs;
  (*log)->set_observer(&obs);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*log)->Append(Key(i), "value" + std::to_string(i), false).ok());
  }
  const SegmentId small = (*log)->tail_segment();
  ASSERT_TRUE((*log)->FlushTail().ok());

  const uint64_t ops_before = dev->stats().ReadOps();
  int records = 0;
  ASSERT_TRUE((*log)
                  ->ForEachRecordIn(small, IoClass::kGc,
                                    [&](const LogRecord& rec) {
                                      EXPECT_EQ(rec.key, Key(records++));
                                      return Status::Ok();
                                    })
                  .ok());
  EXPECT_EQ(records, 3);
  EXPECT_EQ(dev->stats().ReadOps() - ops_before, 1u);
  EXPECT_LT(dev->stats().ReadBytes(IoClass::kGc), kSegment / 8);
  // The prefix read is exactly what the seal wrote.
  auto sealed = (*log)->ReadSealedPrefix(small, IoClass::kOther);
  ASSERT_TRUE(sealed.ok());
  ASSERT_EQ(obs.sealed.size(), 1u);
  EXPECT_EQ(*sealed, obs.sealed[0]);

  // A full segment grows the chunks: every byte up to the marker, few reads.
  int full_records = 0;
  while (obs.sealed.size() < 2) {
    ASSERT_TRUE((*log)->Append(Key(1000 + full_records++), std::string(1000, 'v'), false).ok());
  }
  const SegmentId full = (*log)->FlushedSegmentsSnapshot()[1];
  const uint64_t full_ops_before = dev->stats().ReadOps();
  sealed = (*log)->ReadSealedPrefix(full, IoClass::kScrub);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, obs.sealed[1]);
  EXPECT_LE(dev->stats().ReadOps() - full_ops_before, 3u);
  EXPECT_LE(dev->stats().ReadBytes(IoClass::kScrub), kSegment);

  // A damaged header reads the whole image and fails the walk.
  const uint32_t huge[2] = {10, 1u << 30};
  auto damaged = (*log)->AppendRawSegment(Slice(reinterpret_cast<const char*>(huge), sizeof(huge)));
  ASSERT_TRUE(damaged.ok());
  EXPECT_TRUE((*log)
                  ->ForEachRecordIn(*damaged, IoClass::kRecovery,
                                    [](const LogRecord&) { return Status::Ok(); })
                  .IsCorruption());
  EXPECT_EQ(dev->stats().ReadBytes(IoClass::kRecovery), kSegment);
}

TEST(ValueLogTest, FlushTailPersistsAndOpensNewTail) {
  auto dev = MakeDevice(4096);
  auto log = ValueLog::Create(dev.get());
  ASSERT_TRUE(log.ok());
  auto res = (*log)->Append("k1", "v1", false);
  ASSERT_TRUE(res.ok());
  SegmentId old_tail = (*log)->tail_segment();
  ASSERT_TRUE((*log)->FlushTail().ok());
  EXPECT_NE((*log)->tail_segment(), old_tail);
  EXPECT_EQ((*log)->tail_used(), 0u);
  // Record remains readable from the flushed segment.
  LogRecord rec;
  ASSERT_TRUE((*log)->ReadRecord(res->offset, &rec, nullptr, IoClass::kLookup).ok());
  EXPECT_EQ(rec.value, "v1");
}

TEST(ValueLogTest, ForEachRecordWalksSegmentImage) {
  auto dev = MakeDevice(4096);
  auto log = ValueLog::Create(dev.get());
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*log)->Append(Key(i), "v" + std::to_string(i), false).ok());
  }
  ASSERT_TRUE((*log)->FlushTail().ok());
  SegmentId seg = (*log)->flushed_segments()[0];
  std::string buf(4096, 0);
  uint64_t base = dev->geometry().BaseOffset(seg);
  ASSERT_TRUE(dev->Read(base, 4096, buf.data(), IoClass::kRecovery).ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(ValueLog::ForEachRecord(buf, base, [&](const LogRecord& r) {
                keys.push_back(r.key);
                return Status::Ok();
              }).ok());
  ASSERT_EQ(keys.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(keys[i], Key(i));
  }
}

TEST(ValueLogTest, AppendRawSegmentReadable) {
  auto dev_a = MakeDevice(4096);
  auto dev_b = MakeDevice(4096);
  auto log_a = ValueLog::Create(dev_a.get());
  auto log_b = ValueLog::Create(dev_b.get());
  ASSERT_TRUE(log_a.ok() && log_b.ok());
  ASSERT_TRUE((*log_a)->Append("mirrored", "payload", false).ok());
  ASSERT_TRUE((*log_a)->FlushTail().ok());
  // Copy A's flushed segment image into B as a raw segment ("RDMA buffer").
  SegmentId seg_a = (*log_a)->flushed_segments()[0];
  std::string image(4096, 0);
  ASSERT_TRUE(dev_a->Read(dev_a->geometry().BaseOffset(seg_a), 4096, image.data(),
                          IoClass::kOther)
                  .ok());
  auto seg_b = (*log_b)->AppendRawSegment(image);
  ASSERT_TRUE(seg_b.ok());
  LogRecord rec;
  uint64_t off_b = dev_b->geometry().BaseOffset(*seg_b);  // record at offset 0 in segment
  ASSERT_TRUE((*log_b)->ReadRecord(off_b, &rec, nullptr, IoClass::kLookup).ok());
  EXPECT_EQ(rec.key, "mirrored");
  EXPECT_EQ(rec.value, "payload");
}

TEST(ValueLogTest, CorruptionDetected) {
  auto dev = MakeDevice(4096);
  auto log = ValueLog::Create(dev.get());
  ASSERT_TRUE(log.ok());
  auto res = (*log)->Append("kk", "vv", false);
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE((*log)->FlushTail().ok());
  // Flip a byte of the record on the device.
  char byte;
  ASSERT_TRUE(dev->Read(res->offset + kLogRecordHeaderSize, 1, &byte, IoClass::kOther).ok());
  byte ^= 0x40;
  ASSERT_TRUE(dev->Write(res->offset + kLogRecordHeaderSize, Slice(&byte, 1), IoClass::kOther)
                  .ok());
  LogRecord rec;
  Status s = (*log)->ReadRecord(res->offset, &rec, nullptr, IoClass::kLookup);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// --- Memtable --------------------------------------------------------------

TEST(MemtableTest, PutGetOverwrite) {
  Memtable table;
  table.Put("a", ValueLocation{100, false});
  table.Put("b", ValueLocation{200, false});
  ValueLocation loc;
  ASSERT_TRUE(table.Get("a", &loc));
  EXPECT_EQ(loc.log_offset, 100u);
  table.Put("a", ValueLocation{300, true});
  ASSERT_TRUE(table.Get("a", &loc));
  EXPECT_EQ(loc.log_offset, 300u);
  EXPECT_TRUE(loc.tombstone);
  EXPECT_EQ(table.entries(), 2u);  // overwrite does not add entries
  EXPECT_FALSE(table.Get("c", &loc));
}

TEST(MemtableTest, IterationIsSorted) {
  Memtable table;
  Random rng(42);
  std::set<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    std::string k = rng.Bytes(1 + rng.Uniform(20));
    keys.insert(k);
    table.Put(k, ValueLocation{static_cast<uint64_t>(i), false});
  }
  EXPECT_EQ(table.entries(), keys.size());
  auto it = table.NewIterator();
  it.SeekToFirst();
  auto expect = keys.begin();
  while (it.Valid()) {
    ASSERT_NE(expect, keys.end());
    EXPECT_EQ(it.key().ToString(), *expect);
    ++expect;
    it.Next();
  }
  EXPECT_EQ(expect, keys.end());
}

TEST(MemtableTest, SeekFindsLowerBound) {
  Memtable table;
  for (int i = 0; i < 100; i += 2) {
    table.Put(Key(i), ValueLocation{static_cast<uint64_t>(i), false});
  }
  auto it = table.NewIterator();
  it.Seek(Key(31));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), Key(32));
  it.Seek(Key(98));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key().ToString(), Key(98));
  it.Seek(Key(99));
  EXPECT_FALSE(it.Valid());
}

TEST(MemtableTest, MemoryGrowsWithEntries) {
  Memtable table;
  size_t before = table.ApproximateMemoryBytes();
  for (int i = 0; i < 100; ++i) {
    table.Put(Key(i), ValueLocation{0, false});
  }
  EXPECT_GT(table.ApproximateMemoryBytes(), before);
}

// --- B+ tree node layer --------------------------------------------------------

// Adds `key` at `offset` with the tag the builder derives from its hash.
void AddLeafKey(LeafNodeBuilder* builder, Slice key, uint64_t offset, bool tombstone = false) {
  builder->Add(key, offset, tombstone, KeyHash(key));
}

StatusOr<uint32_t> FindInLeaf(const LeafNodeView& view, Slice key, const FullKeyLoader& full_key) {
  return view.Find(key, KeyHash(key), full_key);
}

TEST(BTreeNodeTest, LeafBuildAndSearch) {
  // Keys are 15 bytes, one longer than kPrefixSize, so equal-prefix ties
  // exercise the full-key loader exactly like KV separation does.
  auto wide_key = [](uint64_t i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%012llu", static_cast<unsigned long long>(i));
    return std::string(buf);
  };
  ASSERT_EQ(wide_key(0).size(), kPrefixSize + 1);
  std::vector<char> buf(kDefaultNodeSize);
  LeafNodeBuilder builder(buf.data(), buf.size());
  std::map<uint64_t, std::string> by_offset;
  for (int i = 0; i < 50; ++i) {
    const uint64_t offset = 1000 + i;
    by_offset[offset] = wide_key(i * 3);
    AddLeafKey(&builder, wide_key(i * 3), offset);
  }
  builder.Finish();

  LeafNodeView view(buf.data(), buf.size());
  ASSERT_TRUE(view.IsValid());
  EXPECT_EQ(view.num_entries(), 50u);
  auto full_key = [&](uint64_t off, size_t) -> StatusOr<std::string> { return by_offset.at(off); };
  auto found = FindInLeaf(view, wide_key(9), full_key);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(view.entry(*found).log_offset(), 1003u);
  EXPECT_TRUE(FindInLeaf(view, wide_key(10), full_key).status().IsNotFound());
}

TEST(BTreeNodeTest, LeafEntryCarriesSizeTagAndPrefix) {
  std::vector<char> buf(kDefaultNodeSize);
  LeafNodeBuilder builder(buf.data(), buf.size());
  const std::string key = "a-key-longer-than-the-prefix";
  AddLeafKey(&builder, key, 7);
  builder.Finish();
  const LeafEntry& e = LeafNodeView(buf.data(), buf.size()).entry(0);
  EXPECT_EQ(e.key_size(), key.size());
  EXPECT_EQ(e.key_tag, KeyTag(KeyHash(key)));
  EXPECT_EQ(std::string(e.prefix, kPrefixSize), key.substr(0, kPrefixSize));
  EXPECT_EQ(e.log_offset(), 7u);
  EXPECT_FALSE(e.tombstone());
  EXPECT_FALSE(e.key_inline());
}

// A key of at most kPrefixSize bytes is stored whole, next to its tombstone
// flag, in one packed word with the 48-bit log offset.
TEST(BTreeNodeTest, LeafEntryHoldsShortKeyWholeWithTombstone) {
  std::vector<char> buf(kDefaultNodeSize);
  LeafNodeBuilder builder(buf.data(), buf.size());
  const std::string live = "user0000000042";
  const std::string dead = "user0000000043";
  ASSERT_EQ(live.size(), kPrefixSize);
  const uint64_t max_offset = kLeafOffsetMask;
  AddLeafKey(&builder, live, max_offset);
  AddLeafKey(&builder, dead, 9, /*tombstone=*/true);
  builder.Finish();
  LeafNodeView view(buf.data(), buf.size());
  const LeafEntry& e0 = view.entry(0);
  EXPECT_TRUE(e0.key_inline());
  EXPECT_EQ(e0.inline_key().ToString(), live);
  EXPECT_EQ(e0.log_offset(), max_offset);
  EXPECT_EQ(e0.key_size(), live.size());
  EXPECT_FALSE(e0.tombstone());
  const LeafEntry& e1 = view.entry(1);
  EXPECT_EQ(e1.inline_key().ToString(), dead);
  EXPECT_EQ(e1.log_offset(), 9u);
  EXPECT_TRUE(e1.tombstone());
  EXPECT_EQ(e1.word >> (kLeafKeySizeShift + 9), 0u) << "reserved bits stay zero";
}

TEST(BTreeNodeTest, LeafPrefixCollisionUsesFullKey) {
  // Keys share the kPrefixSize-byte prefix and differ afterwards: the prefix
  // search alone cannot tell them apart, the tag can.
  std::vector<char> buf(kDefaultNodeSize);
  LeafNodeBuilder builder(buf.data(), buf.size());
  std::string base = "same-prefix-14";  // exactly kPrefixSize
  ASSERT_EQ(base.size(), kPrefixSize);
  std::map<uint64_t, std::string> stored;
  std::set<uint16_t> stored_tags;
  for (int i = 0; i < 5; ++i) {
    std::string k = base + std::string(1, static_cast<char>('a' + i));
    stored[100 + i] = k;
    stored_tags.insert(KeyTag(KeyHash(k)));
    AddLeafKey(&builder, k, 100 + i);
  }
  builder.Finish();
  LeafNodeView view(buf.data(), buf.size());
  int full_key_calls = 0;
  auto full_key = [&](uint64_t off, size_t) -> StatusOr<std::string> {
    full_key_calls++;
    return stored.at(off);
  };
  auto found = FindInLeaf(view, base + "c", full_key);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(view.entry(*found).log_offset(), 102u);
  EXPECT_EQ(full_key_calls, 1) << "a hit confirms exactly one full key";

  // A miss whose tag matches no stored entry reads nothing from the log.
  const std::string absent = base + "z";
  ASSERT_EQ(stored_tags.count(KeyTag(KeyHash(absent))), 0u);
  full_key_calls = 0;
  EXPECT_TRUE(FindInLeaf(view, absent, full_key).status().IsNotFound());
  EXPECT_EQ(full_key_calls, 0);
}

TEST(BTreeNodeTest, LeafTagCollisionFallsBackToFullKey) {
  // Brute-force three suffixes whose keys tie on prefix, size and tag.
  const std::string base = "collide-prefix";  // exactly kPrefixSize
  ASSERT_EQ(base.size(), kPrefixSize);
  std::map<uint16_t, std::vector<std::string>> by_tag;
  std::vector<std::string> colliding;
  for (uint32_t i = 0; colliding.empty(); ++i) {
    char suffix[16];
    snprintf(suffix, sizeof(suffix), "%06u", i);
    const std::string key = base + suffix;
    std::vector<std::string>& bucket = by_tag[KeyTag(KeyHash(key))];
    bucket.push_back(key);
    if (bucket.size() == 3) {
      colliding = bucket;
    }
  }
  // Store the first two, plus neighbours in the same prefix run; keep the
  // third absent.
  std::map<std::string, uint64_t> model;
  model[colliding[0]] = 1;
  model[colliding[1]] = 2;
  model[base + "000000x"] = 3;  // same prefix, different size
  model[base + "~"] = 4;
  std::vector<char> buf(kDefaultNodeSize);
  LeafNodeBuilder builder(buf.data(), buf.size());
  std::map<uint64_t, std::string> stored;
  for (const auto& [key, offset] : model) {
    AddLeafKey(&builder, key, offset);
    stored[offset] = key;
  }
  builder.Finish();
  LeafNodeView view(buf.data(), buf.size());
  int full_key_calls = 0;
  auto full_key = [&](uint64_t off, size_t) -> StatusOr<std::string> {
    full_key_calls++;
    return stored.at(off);
  };
  for (int k = 0; k < 2; ++k) {
    auto found = FindInLeaf(view, colliding[k], full_key);
    ASSERT_TRUE(found.ok()) << colliding[k];
    EXPECT_EQ(view.entry(*found).log_offset(), model[colliding[k]]);
  }
  full_key_calls = 0;
  EXPECT_TRUE(FindInLeaf(view, colliding[2], full_key).status().IsNotFound());
  EXPECT_GT(full_key_calls, 0) << "a colliding tag must be confirmed against the log";
}

TEST(BTreeNodeTest, ShortKeysDecidedWithoutLogRead) {
  std::vector<char> buf(kDefaultNodeSize);
  LeafNodeBuilder builder(buf.data(), buf.size());
  AddLeafKey(&builder, "ab", 1);
  AddLeafKey(&builder, "abc", 2);  // shares short prefix, both fit in kPrefixSize
  builder.Finish();
  LeafNodeView view(buf.data(), buf.size());
  auto no_full_key = [](uint64_t, size_t) -> StatusOr<std::string> {
    return Status::Internal("should not be called");
  };
  auto found = FindInLeaf(view, "abc", no_full_key);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(view.entry(*found).log_offset(), 2u);
  found = FindInLeaf(view, "ab", no_full_key);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(view.entry(*found).log_offset(), 1u);
  // A probe longer than the prefix orders after a short key that is its
  // prefix, without a log read.
  auto lower = view.LowerBound("abc" + std::string(20, 'x'), no_full_key);
  ASSERT_TRUE(lower.ok());
  EXPECT_EQ(*lower, 2u);
}

// Random key of 1..40 bytes over a small alphabet that includes NUL, drawn
// from a few shared stems so that prefix ties are common.
std::string RandomLeafKey(Random* rng) {
  static const char kAlphabet[] = {'\0', 'a', 'b', 'z'};
  static const std::string kStems[] = {"", std::string("st\0m", 4), "stem-fourteen!"};
  const size_t size = rng->OneIn(4) ? kPrefixSize : rng->UniformRange(1, 40);
  std::string key = kStems[rng->Uniform(3)].substr(0, size);
  while (key.size() < size) {
    key.push_back(kAlphabet[rng->Uniform(sizeof(kAlphabet))]);
  }
  return key;
}

TEST(BTreeNodeTest, LeafSearchMatchesOrderedMapProperty) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Random rng(seed);
    std::map<std::string, uint64_t> model;
    const size_t target = rng.UniformRange(1, LeafCapacity(kDefaultNodeSize));
    for (size_t tries = 0; model.size() < target && tries < 4 * target; ++tries) {
      model.emplace(RandomLeafKey(&rng), model.size() + 1);
    }
    std::vector<char> buf(kDefaultNodeSize);
    LeafNodeBuilder builder(buf.data(), buf.size());
    std::map<uint64_t, std::string> stored;
    std::vector<std::string> sorted;
    for (const auto& [key, offset] : model) {
      AddLeafKey(&builder, key, offset);
      stored[offset] = key;
      sorted.push_back(key);
    }
    builder.Finish();
    LeafNodeView view(buf.data(), buf.size());
    auto full_key = [&](uint64_t off, size_t) -> StatusOr<std::string> { return stored.at(off); };

    std::vector<std::string> probes = sorted;
    for (int i = 0; i < 100; ++i) {
      probes.push_back(RandomLeafKey(&rng));
    }
    for (const std::string& probe : probes) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " probe size " << probe.size());
      auto found = FindInLeaf(view, probe, full_key);
      auto it = model.find(probe);
      if (it == model.end()) {
        EXPECT_TRUE(found.status().IsNotFound());
      } else {
        ASSERT_TRUE(found.ok());
        EXPECT_EQ(view.entry(*found).log_offset(), it->second);
      }
      auto lower = view.LowerBound(probe, full_key);
      ASSERT_TRUE(lower.ok());
      EXPECT_EQ(*lower, std::lower_bound(sorted.begin(), sorted.end(), probe) - sorted.begin());
    }
  }
}

TEST(BTreeNodeTest, IndexNodeSearch) {
  std::vector<char> buf(kDefaultNodeSize);
  IndexNodeBuilder builder(buf.data(), buf.size());
  builder.Add(Key(0), 1000);
  builder.Add(Key(10), 2000);
  builder.Add(Key(20), 3000);
  builder.Finish(1);

  IndexNodeView view(buf.data(), buf.size());
  ASSERT_TRUE(view.IsValid());
  EXPECT_EQ(view.num_entries(), 3u);
  EXPECT_EQ(view.header().tree_height, 1u);
  EXPECT_EQ(view.child(view.FindChild(Key(5))), 1000u);
  EXPECT_EQ(view.child(view.FindChild(Key(10))), 2000u);
  EXPECT_EQ(view.child(view.FindChild(Key(15))), 2000u);
  EXPECT_EQ(view.child(view.FindChild(Key(99))), 3000u);
  // Keys below the first pivot fall through to child 0.
  EXPECT_EQ(view.child(view.FindChild("aaa")), 1000u);
}

TEST(BTreeNodeTest, IndexNodeOverflowDetection) {
  std::vector<char> buf(256);
  IndexNodeBuilder builder(buf.data(), buf.size());
  int added = 0;
  while (!builder.WouldOverflow(13)) {
    builder.Add(Key(added), added);
    added++;
  }
  EXPECT_GT(added, 2);
  builder.Finish(1);
  IndexNodeView view(buf.data(), buf.size());
  EXPECT_EQ(view.num_entries(), static_cast<uint32_t>(added));
}

// Long pivots: a cell larger than the space left below the cells overflows,
// even while the slot directory is still short.
TEST(BTreeNodeTest, IndexNodeOverflowDetectionWithLongKeys) {
  std::vector<char> buf(kDefaultNodeSize);
  IndexNodeBuilder builder(buf.data(), buf.size());
  const std::string pivot(kMaxKeySize, 'p');
  int added = 0;
  while (!builder.WouldOverflow(pivot.size())) {
    builder.Add(pivot, added);
    added++;
  }
  // 15 cells of 2 + 260 B fit beside the header; a 16th does not.
  EXPECT_EQ(added, 15);
}

TEST(BTreeNodeTest, RewriteLeafOffsetsTranslates) {
  std::vector<char> buf(kDefaultNodeSize);
  LeafNodeBuilder builder(buf.data(), buf.size());
  AddLeafKey(&builder, "k1", 0x10000 | 5);
  AddLeafKey(&builder, "k2", 0x20000 | 9);
  builder.Finish();
  ASSERT_TRUE(RewriteLeafOffsets(buf.data(), buf.size(), [](uint64_t off) -> StatusOr<uint64_t> {
                return off + 0x100000;
              }).ok());
  LeafNodeView view(buf.data(), buf.size());
  EXPECT_EQ(view.entry(0).log_offset(), (0x10000u | 5) + 0x100000u);
  EXPECT_EQ(view.entry(1).log_offset(), (0x20000u | 9) + 0x100000u);
}

// The backup rewrite translates only the offset bits of each entry: key
// size, tombstone flag, tag and prefix (the whole key, when inline) come
// through byte-identical, for inline and long keys alike.
TEST(BTreeNodeTest, RewriteLeafOffsetsKeepsEverythingButTheOffset) {
  std::vector<char> buf(kDefaultNodeSize);
  LeafNodeBuilder builder(buf.data(), buf.size());
  const std::vector<std::string> keys = {"a", "user0000000001", "user0000000002",
                                         "user00000000020-long-key"};
  for (size_t i = 0; i < keys.size(); ++i) {
    AddLeafKey(&builder, keys[i], (i << 20) | (100 + i), /*tombstone=*/i % 2 == 1);
  }
  builder.Finish();
  const std::vector<char> before = buf;
  const uint64_t high = kLeafOffsetMask & ~0xfffffull;  // top of the 48-bit space
  ASSERT_TRUE(RewriteLeafOffsets(buf.data(), buf.size(), [&](uint64_t off) -> StatusOr<uint64_t> {
                return high | (off & 0xfffff);
              }).ok());
  LeafNodeView old_view(before.data(), before.size());
  LeafNodeView view(buf.data(), buf.size());
  ASSERT_EQ(view.num_entries(), keys.size());
  for (uint32_t i = 0; i < keys.size(); ++i) {
    const LeafEntry& was = old_view.entry(i);
    const LeafEntry& now = view.entry(i);
    EXPECT_EQ(now.log_offset(), high | (100 + i));
    EXPECT_EQ(now.key_size(), was.key_size());
    EXPECT_EQ(now.tombstone(), was.tombstone());
    EXPECT_EQ(now.tombstone(), i % 2 == 1);
    // Everything after the 6 offset bytes is untouched.
    EXPECT_EQ(memcmp(reinterpret_cast<const char*>(&now) + 6,
                     reinterpret_cast<const char*>(&was) + 6, sizeof(LeafEntry) - 6),
              0)
        << keys[i];
  }
  // The header is untouched too.
  EXPECT_EQ(memcmp(buf.data(), before.data(), sizeof(NodeHeader)), 0);
  // A translation past the 48 offset bits is refused, not truncated.
  EXPECT_FALSE(RewriteLeafOffsets(buf.data(), buf.size(), [](uint64_t) -> StatusOr<uint64_t> {
                 return kLeafOffsetMask + 1;
               }).ok());
}

TEST(BTreeNodeTest, RewriteIndexChildrenTranslates) {
  std::vector<char> buf(kDefaultNodeSize);
  IndexNodeBuilder builder(buf.data(), buf.size());
  builder.Add("a", 111);
  builder.Add("m", 222);
  builder.Finish(1);
  ASSERT_TRUE(
      RewriteIndexChildren(buf.data(), buf.size(), [](uint64_t off) -> StatusOr<uint64_t> {
        return off * 10;
      }).ok());
  IndexNodeView view(buf.data(), buf.size());
  EXPECT_EQ(view.child(0), 1110u);
  EXPECT_EQ(view.child(1), 2220u);
  EXPECT_EQ(view.key(1).ToString(), "m");  // keys untouched
}

TEST(BTreeNodeTest, RewriteRejectsWrongNodeKind) {
  std::vector<char> buf(kDefaultNodeSize);
  LeafNodeBuilder builder(buf.data(), buf.size());
  AddLeafKey(&builder, "k", 1);
  builder.Finish();
  auto identity = [](uint64_t off) -> StatusOr<uint64_t> { return off; };
  EXPECT_FALSE(RewriteIndexChildren(buf.data(), buf.size(), identity).ok());
  ASSERT_TRUE(RewriteLeafOffsets(buf.data(), buf.size(), identity).ok());
}

// --- B+ tree builder + reader round trips ---------------------------------------

struct TreeFixture {
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<ValueLog> log;
  BuiltTree tree;
  std::vector<std::pair<std::string, uint64_t>> entries;  // key -> log offset
};

// Builds a tree over `n` log-backed keys with stride 2 (odd keys absent).
TreeFixture BuildTree(uint64_t n, uint64_t segment_size = 1 << 16) {
  TreeFixture fx;
  fx.device = MakeDevice(segment_size, 1 << 16);
  auto log = ValueLog::Create(fx.device.get());
  EXPECT_TRUE(log.ok());
  fx.log = std::move(*log);
  BTreeBuilder builder(fx.device.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  for (uint64_t i = 0; i < n; ++i) {
    const std::string key = Key(i * 2);
    auto res = fx.log->Append(key, "value" + std::to_string(i), false);
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(builder.Add(key, res->offset, false).ok());
    fx.entries.emplace_back(key, res->offset);
  }
  auto tree = builder.Finish();
  EXPECT_TRUE(tree.ok());
  fx.tree = *tree;
  return fx;
}

FullKeyLoader LoaderFor(const ValueLog* log) {
  return [log](uint64_t off, size_t key_size) -> StatusOr<std::string> {
    std::string key;
    TEBIS_RETURN_IF_ERROR(log->ReadKey(off, key_size, &key, nullptr, nullptr, IoClass::kLookup));
    return key;
  };
}

TEST(BTreeBuilderTest, EmptyTree) {
  auto dev = MakeDevice();
  BTreeBuilder builder(dev.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  auto tree = builder.Finish();
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->empty());
  EXPECT_EQ(tree->num_entries, 0u);
}

TEST(BTreeBuilderTest, RejectsOutOfOrderKeys) {
  auto dev = MakeDevice();
  BTreeBuilder builder(dev.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  ASSERT_TRUE(builder.Add("b", 1, false).ok());
  EXPECT_FALSE(builder.Add("a", 2, false).ok());
  EXPECT_FALSE(builder.Add("b", 3, false).ok());  // duplicates also rejected
  // An offset past the leaf entry's 48 bits is refused.
  EXPECT_FALSE(builder.Add("c", kLeafOffsetMask + 1, false).ok());
}

TEST(BTreeBuilderTest, RejectsUseAfterFinish) {
  auto dev = MakeDevice();
  BTreeBuilder builder(dev.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  ASSERT_TRUE(builder.Add("a", 1, false).ok());
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_FALSE(builder.Add("b", 2, false).ok());
  EXPECT_FALSE(builder.Finish().ok());
}

class BTreeRoundTripTest : public testing::TestWithParam<uint64_t> {};

TEST_P(BTreeRoundTripTest, FindEveryKeyAndMissAbsent) {
  const uint64_t n = GetParam();
  TreeFixture fx = BuildTree(n);
  EXPECT_EQ(fx.tree.num_entries, n);
  BTreeReader reader(fx.device.get(), nullptr, kDefaultNodeSize, fx.tree, IoClass::kLookup);
  auto loader = LoaderFor(fx.log.get());
  for (const auto& [key, offset] : fx.entries) {
    auto found = reader.Find(key, KeyHash(key), loader);
    ASSERT_TRUE(found.ok()) << key;
    EXPECT_EQ(found->log_offset(), offset);
  }
  // Odd keys are absent.
  for (uint64_t i = 0; i < std::min<uint64_t>(n, 50); ++i) {
    const std::string absent = Key(i * 2 + 1);
    EXPECT_TRUE(reader.Find(absent, KeyHash(absent), loader).status().IsNotFound());
  }
}

TEST_P(BTreeRoundTripTest, IteratorVisitsAllInOrder) {
  const uint64_t n = GetParam();
  TreeFixture fx = BuildTree(n);
  BTreeReader reader(fx.device.get(), nullptr, kDefaultNodeSize, fx.tree, IoClass::kLookup);
  BTreeIterator it(&reader);
  ASSERT_TRUE(it.SeekToFirst().ok());
  uint64_t count = 0;
  while (it.Valid()) {
    ASSERT_LT(count, fx.entries.size());
    EXPECT_EQ(it.entry().log_offset(), fx.entries[count].second);
    count++;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, n);
}

// Sizes chosen to cover: single leaf, multiple leaves one index node, two
// index levels, and multi-segment trees.
INSTANTIATE_TEST_SUITE_P(TreeSizes, BTreeRoundTripTest,
                         testing::Values(1, 2, 169, 170, 171, 5000, 40000));

TEST(BTreeIteratorTest, SeekLandsOnLowerBound) {
  TreeFixture fx = BuildTree(1000);
  BTreeReader reader(fx.device.get(), nullptr, kDefaultNodeSize, fx.tree, IoClass::kLookup);
  auto loader = LoaderFor(fx.log.get());
  BTreeIterator it(&reader);
  // Key(501) is absent (odd); expect Key(502).
  ASSERT_TRUE(it.Seek(Key(501), loader).ok());
  ASSERT_TRUE(it.Valid());
  std::string key;
  ASSERT_TRUE(fx.log
                  ->ReadKey(it.entry().log_offset(), it.entry().key_size(), &key, nullptr, nullptr,
                            IoClass::kLookup)
                  .ok());
  EXPECT_EQ(key, Key(502));
  // Seek beyond the last key.
  ASSERT_TRUE(it.Seek(Key(999999), loader).ok());
  EXPECT_FALSE(it.Valid());
}

TEST(BTreeBuilderTest, SinkSeesSegmentsInBuildOrder) {
  struct Sink : SegmentSink {
    void OnSegmentComplete(int tree_level, SegmentId segment, Slice bytes,
                           uint32_t crc) override {
      events.emplace_back(tree_level, segment, bytes.size());
      total_bytes += bytes.size();
      checksums[segment] = SegmentChecksum{crc, static_cast<uint32_t>(bytes.size())};
      crcs_match = crcs_match && crc == Crc32c(bytes.data(), bytes.size());
    }
    std::vector<std::tuple<int, SegmentId, size_t>> events;
    uint64_t total_bytes = 0;
    std::map<SegmentId, SegmentChecksum> checksums;
    bool crcs_match = true;
  } sink;
  auto dev = MakeDevice(1 << 16, 1 << 16);
  auto log = ValueLog::Create(dev.get());
  ASSERT_TRUE(log.ok());
  BTreeBuilder builder(dev.get(), kDefaultNodeSize, IoClass::kCompactionWrite, &sink);
  const uint64_t n = 20000;
  for (uint64_t i = 0; i < n; ++i) {
    auto res = (*log)->Append(Key(i), "v", false);
    ASSERT_TRUE(res.ok());
    ASSERT_TRUE(builder.Add(Key(i), res->offset, false).ok());
  }
  auto tree = builder.Finish();
  ASSERT_TRUE(tree.ok());
  ASSERT_FALSE(sink.events.empty());
  EXPECT_EQ(sink.total_bytes, tree->bytes_written);
  // Every segment of the tree is emitted exactly once.
  std::set<SegmentId> emitted;
  for (const auto& [level, seg, size] : sink.events) {
    EXPECT_TRUE(emitted.insert(seg).second);
  }
  EXPECT_EQ(emitted.size(), tree->segments.size());
  // The sink receives each segment's checksum, the one the tree keeps.
  EXPECT_TRUE(sink.crcs_match);
  for (size_t i = 0; i < tree->segments.size(); ++i) {
    EXPECT_EQ(sink.checksums[tree->segments[i]], tree->seg_checksums[i]);
  }
  // Leaf segments (level 0) must exist.
  EXPECT_TRUE(std::any_of(sink.events.begin(), sink.events.end(),
                          [](const auto& e) { return std::get<0>(e) == 0; }));
}

// --- index segment codec ---------------------------------------------------------

struct CapturedSegment {
  int tree_level;
  std::string bytes;
  uint32_t crc;
};

// Builds a tree of ascending `keys` with random value-log offsets below
// 2^24, every `tombstone_every`-th key (when > 0) a tombstone, and returns
// every segment the builder emitted.
std::vector<CapturedSegment> BuildSegments(const std::vector<std::string>& keys,
                                           int tombstone_every, uint16_t* height) {
  struct Sink : SegmentSink {
    void OnSegmentComplete(int tree_level, SegmentId, Slice bytes, uint32_t crc) override {
      segments.push_back({tree_level, bytes.ToString(), crc});
    }
    std::vector<CapturedSegment> segments;
  } sink;
  auto dev = MakeDevice(1 << 16, 1 << 16);
  BTreeBuilder builder(dev.get(), kDefaultNodeSize, IoClass::kCompactionWrite, &sink);
  Random rng(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool tombstone = tombstone_every > 0 && i % tombstone_every == 0;
    const Status added = builder.Add(keys[i], rng.Uniform(1 << 24), tombstone);
    EXPECT_TRUE(added.ok()) << i << ": " << added.ToString();
  }
  auto tree = builder.Finish();
  EXPECT_TRUE(tree.ok());
  *height = tree->height;
  return std::move(sink.segments);
}

// Encodes and decodes `segment`; returns the encoding after checking that
// the decode gives back the exact bytes.
std::string ExpectRoundTrip(const std::string& segment) {
  const std::string wire = EncodeIndexSegment(segment, kDefaultNodeSize);
  std::string decoded;
  const Status status = DecodeIndexSegment(wire, kDefaultNodeSize, 1 << 16, &decoded);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(decoded == segment) << "decoded " << decoded.size() << " B differ from the "
                                  << segment.size() << " B segment";
  return wire;
}

std::string UserKey(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%010llu", static_cast<unsigned long long>(i));
  return buf;
}

TEST(IndexCodecTest, RoundTripsBuilderOutputByteForByte) {
  struct Case {
    const char* name;
    std::vector<std::string> keys;
    int tombstone_every;
    uint16_t min_height;
  };
  std::vector<Case> cases;
  // Inline 14-byte keys with tombstones; 5000 keys leave a partial last leaf.
  cases.push_back({"inline", {}, 7, 1});
  for (uint64_t i = 0; i < 5000; ++i) {
    cases.back().keys.push_back(UserKey(3 * i));
  }
  // Longer keys whose 14-byte prefixes all tie, so only size and tag differ.
  cases.push_back({"long", {}, 5, 1});
  for (uint64_t i = 0; i < 3000; ++i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "tenant-0042/ob/%08llu", static_cast<unsigned long long>(i));
    cases.back().keys.push_back(buf);
  }
  // Inline keys that are prefixes of the long keys beside them.
  cases.push_back({"mixed", {}, 3, 1});
  for (uint64_t i = 0; i < 1000; ++i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "a%05llu", static_cast<unsigned long long>(i));
    cases.back().keys.push_back(buf);
    cases.back().keys.push_back(std::string(buf) + "-and-a-long-tail");
  }
  // A single-leaf tree.
  cases.push_back({"single-leaf", {"k1", "k2", "k3", "k4", "k5"}, 2, 0});
  // 200-byte pivots: 19 cells per index node, so index nodes at heights 1-2.
  cases.push_back({"long-pivots", {}, 0, 2});
  for (uint64_t i = 0; i < 4000; ++i) {
    cases.back().keys.push_back(std::string(190, 'p') + Key(i).substr(3));
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    uint16_t height = 0;
    const std::vector<CapturedSegment> segments = BuildSegments(c.keys, c.tombstone_every, &height);
    EXPECT_GE(height, c.min_height);
    ASSERT_FALSE(segments.empty());
    size_t raw = 0, wire = 0;
    for (const CapturedSegment& segment : segments) {
      wire += ExpectRoundTrip(segment.bytes).size();
      raw += segment.bytes.size();
      EXPECT_EQ(Crc32c(segment.bytes.data(), segment.bytes.size()), segment.crc);
    }
    // Every case's leaves are canonical, so nothing travels raw.
    EXPECT_LT(wire, raw) << c.name;
  }
}

// A leaf of sorted user%010d keys drawn from one region's 37,500-key slice,
// with offsets below 2^24: neighbours share 10-13 prefix bytes and each
// entry costs about 10 B on the wire instead of 24.
TEST(IndexCodecTest, FullUserKeyLeafEncodesUnder45Percent) {
  Random rng(7);
  std::set<uint64_t> ids;
  while (ids.size() < LeafCapacity(kDefaultNodeSize)) {
    ids.insert(1000000 + rng.Uniform(37500));
  }
  std::string node(kDefaultNodeSize, 0);
  LeafNodeBuilder leaf(node.data(), kDefaultNodeSize);
  for (uint64_t id : ids) {
    AddLeafKey(&leaf, UserKey(id), rng.Uniform(1 << 24));
  }
  ASSERT_TRUE(leaf.Full());
  leaf.Finish();
  const std::string wire = ExpectRoundTrip(node);
  EXPECT_LE(wire.size(), kDefaultNodeSize * 45 / 100);
}

// Nodes the encoder cannot prove canonical travel raw behind their tag and
// still decode to the exact bytes, beside canonical, zero and short nodes.
TEST(IndexCodecTest, NonCanonicalNodesTravelRawAndRoundTrip) {
  std::string leaf_node(kDefaultNodeSize, 0);
  LeafNodeBuilder leaf(leaf_node.data(), kDefaultNodeSize);
  for (int i = 0; i < 10; ++i) {
    AddLeafKey(&leaf, Key(i), 4096 * i, /*tombstone=*/i % 2 == 1);
  }
  leaf.Finish();
  std::string index_node(kDefaultNodeSize, 0);
  IndexNodeBuilder index(index_node.data(), kDefaultNodeSize);
  index.Add(Key(0), 0);
  index.Add(Key(5), kDefaultNodeSize);
  index.Finish(1);
  EXPECT_LT(ExpectRoundTrip(leaf_node).size(), kDefaultNodeSize / 4);
  EXPECT_LT(ExpectRoundTrip(index_node).size(), kDefaultNodeSize / 4);

  const auto stray = [](std::string node, size_t at) {
    node[at] = '\x5a';
    return node;
  };
  LeafEntry entry;
  memcpy(&entry, leaf_node.data() + sizeof(NodeHeader), sizeof(entry));
  entry.word |= 1ull << 60;  // above the tombstone flag
  std::string unused_bits = leaf_node;
  memcpy(unused_bits.data() + sizeof(NodeHeader), &entry, sizeof(entry));
  const std::vector<std::pair<const char*, std::string>> odd = {
      {"leaf tail", stray(leaf_node, kDefaultNodeSize - 1)},
      // Key(0) is 13 bytes: its prefix's last byte is padding.
      {"prefix padding", stray(leaf_node, sizeof(NodeHeader) + offsetof(LeafEntry, prefix) + 13)},
      {"entry word", unused_bits},
      {"index gap", stray(index_node, kDefaultNodeSize / 2)},
      {"index header", stray(index_node, offsetof(NodeHeader, reserved))},
  };
  for (const auto& [name, node] : odd) {
    SCOPED_TRACE(name);
    EXPECT_GT(ExpectRoundTrip(node).size(), kDefaultNodeSize);
  }
  // One segment of every kind of node, ending in a short one.
  const std::string segment = leaf_node + odd[0].second + std::string(kDefaultNodeSize, 0) +
                              index_node + std::string(100, 'z');
  EXPECT_LT(ExpectRoundTrip(segment).size(), segment.size());
}

// Offsets and children at every varint length boundary, up to the widest
// leaf offset and the widest child.
TEST(IndexCodecTest, VarintBoundariesRoundTrip) {
  std::vector<uint64_t> values = {0, 1};
  for (int bits = 7; bits < 64; bits += 7) {
    values.push_back((uint64_t{1} << bits) - 1);
    values.push_back(uint64_t{1} << bits);
  }
  values.push_back(~uint64_t{0});
  std::string leaf_node(kDefaultNodeSize, 0);
  LeafNodeBuilder leaf(leaf_node.data(), kDefaultNodeSize);
  std::string index_node(kDefaultNodeSize, 0);
  IndexNodeBuilder index(index_node.data(), kDefaultNodeSize);
  for (size_t i = 0; i < values.size(); ++i) {
    AddLeafKey(&leaf, Key(i), std::min(values[i], kLeafOffsetMask));
    index.Add(Key(i), values[i]);
  }
  leaf.Finish();
  index.Finish(2);
  EXPECT_LT(ExpectRoundTrip(leaf_node).size(), kDefaultNodeSize / 2);
  EXPECT_LT(ExpectRoundTrip(index_node).size(), kDefaultNodeSize / 2);
}

TEST(IndexCodecTest, DecoderRefusesSizesAndCountsPastItsBounds) {
  std::string leaf_node(kDefaultNodeSize, 0);
  LeafNodeBuilder leaf(leaf_node.data(), kDefaultNodeSize);
  AddLeafKey(&leaf, Key(1), 1);
  leaf.Finish();
  std::string out;
  // A segment larger than the decoder's bound.
  const std::string two = EncodeIndexSegment(leaf_node + leaf_node, kDefaultNodeSize);
  EXPECT_TRUE(DecodeIndexSegment(two, kDefaultNodeSize, kDefaultNodeSize, &out).IsCorruption());
  EXPECT_TRUE(DecodeIndexSegment(two, kDefaultNodeSize, 2 * kDefaultNodeSize, &out).ok());
  // Hand-made node headers: size 4096 (varint 0x80 0x20), tag, count.
  const auto node = [](uint8_t tag, std::string body) {
    return std::string("\x80\x20", 2) + static_cast<char>(tag) + body;
  };
  // 171 leaf entries (varint 0xab 0x01) overflow a 170-entry leaf.
  EXPECT_TRUE(DecodeIndexSegment(node(2, "\xab\x01"), kDefaultNodeSize, 1 << 16, &out)
                  .IsCorruption());
  // 2041 index slots (varint 0xf9 0x0f) overflow the node before any cell.
  EXPECT_TRUE(DecodeIndexSegment(node(3, std::string("\x01\xf9\x0f", 3)), kDefaultNodeSize,
                                 1 << 16, &out)
                  .IsCorruption());
  // One cell whose 4096-byte key (varint 0x80 0x20) cannot fit.
  EXPECT_TRUE(DecodeIndexSegment(node(3, std::string("\x01\x01\x80\x20\x00", 5)),
                                 kDefaultNodeSize, 1 << 16, &out)
                  .IsCorruption());
  // A leaf or index tag on a short trailing node.
  EXPECT_TRUE(DecodeIndexSegment(std::string("\x10\x02\x00", 3), kDefaultNodeSize, 1 << 16, &out)
                  .IsCorruption());
}

// --- PageCache -----------------------------------------------------------------

TEST(PageCacheTest, HitsAvoidDeviceReads) {
  auto dev = MakeDevice(1 << 16);
  auto seg = dev->AllocateSegment();
  ASSERT_TRUE(seg.ok());
  uint64_t base = dev->geometry().BaseOffset(*seg);
  std::string data(4096, 'p');
  ASSERT_TRUE(dev->Write(base, data, IoClass::kOther).ok());
  dev->stats().Reset();

  PageCache cache(dev.get(), 1 << 20);
  char out[100];
  ASSERT_TRUE(cache.Read(base + 10, 100, out, IoClass::kLookup).ok());
  EXPECT_EQ(cache.misses(), 1u);
  ASSERT_TRUE(cache.Read(base + 50, 100, out, IoClass::kLookup).ok());
  EXPECT_EQ(cache.hits(), 1u);
  // Only one page fault hit the device.
  EXPECT_EQ(dev->stats().TotalReadBytes(), 4096u);
}

TEST(PageCacheTest, EvictionBoundsMemory) {
  auto dev = MakeDevice(1 << 16, 256);
  std::vector<uint64_t> bases;
  std::string data(4096, 'x');
  for (int i = 0; i < 16; ++i) {
    auto seg = dev->AllocateSegment();
    ASSERT_TRUE(seg.ok());
    bases.push_back(dev->geometry().BaseOffset(*seg));
    ASSERT_TRUE(dev->Write(bases.back(), data, IoClass::kOther).ok());
  }
  PageCache cache(dev.get(), 4 * 4096);  // 4 pages
  char out[8];
  for (int round = 0; round < 2; ++round) {
    for (auto base : bases) {
      ASSERT_TRUE(cache.Read(base, 8, out, IoClass::kLookup).ok());
    }
  }
  // Working set (16 pages) exceeds capacity (4), so round 2 misses too.
  EXPECT_EQ(cache.misses(), 32u);
}

TEST(PageCacheTest, InvalidateSegmentDropsPages) {
  auto dev = MakeDevice(1 << 16);
  auto seg = dev->AllocateSegment();
  ASSERT_TRUE(seg.ok());
  uint64_t base = dev->geometry().BaseOffset(*seg);
  std::string data(4096, 'a');
  ASSERT_TRUE(dev->Write(base, data, IoClass::kOther).ok());
  PageCache cache(dev.get(), 1 << 20);
  char out[4];
  ASSERT_TRUE(cache.Read(base, 4, out, IoClass::kLookup).ok());
  cache.InvalidateSegment(*seg);
  // Device contents changed; the cache must not serve the stale page.
  std::string fresh(4096, 'b');
  ASSERT_TRUE(dev->Write(base, fresh, IoClass::kOther).ok());
  ASSERT_TRUE(cache.Read(base, 4, out, IoClass::kLookup).ok());
  EXPECT_EQ(out[0], 'b');
}

// --- Compaction merge ------------------------------------------------------------

TEST(CompactionTest, NewestVersionWinsOnTies) {
  Memtable newer;
  Memtable older;
  newer.Put("k1", ValueLocation{100, false});
  older.Put("k1", ValueLocation{1, false});
  older.Put("k2", ValueLocation{2, false});
  auto dev = MakeDevice();
  BTreeBuilder builder(dev.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
  MemtableMergeSource src_new(&newer);
  MemtableMergeSource src_old(&older);
  auto written = MergeSources({&src_new, &src_old}, false, &builder);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, 2u);
  auto tree = builder.Finish();
  ASSERT_TRUE(tree.ok());
  BTreeReader reader(dev.get(), nullptr, kDefaultNodeSize, *tree, IoClass::kLookup);
  auto loader = [](uint64_t, size_t) -> StatusOr<std::string> { return Status::Internal("no log"); };
  auto found = reader.Find("k1", KeyHash("k1"), loader);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->log_offset(), 100u);  // newest offset
}

TEST(CompactionTest, TombstonesDroppedOnlyAtLastLevel) {
  Memtable table;
  table.Put("dead", ValueLocation{50, true});
  table.Put("live", ValueLocation{60, false});
  auto dev = MakeDevice();
  {
    BTreeBuilder keep(dev.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
    MemtableMergeSource src(&table);
    auto written = MergeSources({&src}, /*drop_tombstones=*/false, &keep);
    ASSERT_TRUE(written.ok());
    EXPECT_EQ(*written, 2u);
  }
  {
    BTreeBuilder drop(dev.get(), kDefaultNodeSize, IoClass::kCompactionWrite, nullptr);
    MemtableMergeSource src(&table);
    auto written = MergeSources({&src}, /*drop_tombstones=*/true, &drop);
    ASSERT_TRUE(written.ok());
    EXPECT_EQ(*written, 1u);
  }
}

// A sink that spends measurable wall time on every completed segment, as
// index shipping does, and accounts it the way KvStore's ObserverSink does.
class SlowShipSink : public SegmentSink {
 public:
  void OnSegmentComplete(int, SegmentId, Slice, uint32_t) override {
    ScopedTimer timer(&ship_ns);
    const uint64_t until = NowNanos() + 200'000;
    while (NowNanos() < until) {
    }
    segments++;
  }
  uint64_t ship_ns = 0;
  int segments = 0;
};

// MergeSources stages winners in runs of kMergeRunLength. Its output must be
// the tree a builder fed the model's winners directly produces, byte for
// byte, whatever falls on a run edge; and its stage timers, with the sink's
// ship time taken out of the build stages, partition the call's wall time.
class MergeRunTest : public testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(MergeRunTest, OutputMatchesDirectBuildAndTimersPartition) {
  const auto [keys, drop_tombstones] = GetParam();
  constexpr size_t kNodeSize = 512;  // 8 nodes per 4 KiB segment: segments ship mid-merge
  // The older source holds every key; the newer one re-versions the keys
  // around each run edge, as a live value or a tombstone.
  Memtable newer;
  Memtable older;
  std::map<std::string, ValueLocation> model;
  for (size_t i = 0; i < keys; ++i) {
    const ValueLocation loc{1000 + i, i == kMergeRunLength};
    older.Put(Key(i), loc);
    model[Key(i)] = loc;
  }
  for (size_t i : {size_t{0}, kMergeRunLength - 2, kMergeRunLength - 1, kMergeRunLength,
                   keys - 1}) {
    if (i >= keys) {
      continue;
    }
    const ValueLocation loc{5000 + i, i == kMergeRunLength - 1 || i == keys - 1};
    newer.Put(Key(i), loc);
    model[Key(i)] = loc;
  }

  auto merged_dev = MakeDevice(4096);
  auto direct_dev = MakeDevice(4096);
  SlowShipSink sink;
  BTreeBuilder merged(merged_dev.get(), kNodeSize, IoClass::kCompactionWrite, &sink);
  BTreeBuilder direct(direct_dev.get(), kNodeSize, IoClass::kCompactionWrite, nullptr);
  merged.EnableFilter(10);
  direct.EnableFilter(10);

  MemtableMergeSource src_new(&newer);
  MemtableMergeSource src_old(&older);
  MergeStageTiming timing;
  timing.sink_ns = &sink.ship_ns;
  const uint64_t start_ns = NowNanos();
  auto written = MergeSources({&src_new, &src_old}, drop_tombstones, &merged, &timing);
  const uint64_t wall_ns = NowNanos() - start_ns;
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_GT(sink.segments, 0);
  EXPECT_GT(timing.merge_ns, 0u);
  EXPECT_GT(timing.build_ns, 0u);
  EXPECT_LE(timing.merge_ns + timing.build_ns + sink.ship_ns, wall_ns);

  uint64_t expected = 0;
  for (const auto& [key, loc] : model) {
    if (loc.tombstone && drop_tombstones) {
      continue;
    }
    ASSERT_TRUE(direct.Add(key, loc.log_offset, loc.tombstone).ok());
    expected++;
  }
  EXPECT_EQ(*written, expected);

  auto merged_tree = merged.Finish();
  auto direct_tree = direct.Finish();
  ASSERT_TRUE(merged_tree.ok() && direct_tree.ok());
  EXPECT_EQ(merged_tree->root_offset, direct_tree->root_offset);
  EXPECT_EQ(merged_tree->num_entries, direct_tree->num_entries);
  EXPECT_EQ(merged_tree->segments, direct_tree->segments);
  EXPECT_EQ(merged_tree->seg_checksums, direct_tree->seg_checksums);
  ASSERT_NE(merged_tree->filter, nullptr);
  ASSERT_NE(direct_tree->filter, nullptr);
  EXPECT_EQ(*merged_tree->filter, *direct_tree->filter);
  for (size_t i = 0; i < merged_tree->segments.size(); ++i) {
    const uint64_t base = merged_dev->geometry().BaseOffset(merged_tree->segments[i]);
    std::string a(merged_tree->seg_checksums[i].length, 0);
    std::string b(a.size(), 0);
    ASSERT_TRUE(merged_dev->Read(base, a.size(), a.data(), IoClass::kOther).ok());
    ASSERT_TRUE(direct_dev->Read(base, b.size(), b.data(), IoClass::kOther).ok());
    EXPECT_EQ(a, b) << "segment " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RunEdges, MergeRunTest,
                         testing::Combine(testing::Values(kMergeRunLength - 1, kMergeRunLength,
                                                          kMergeRunLength + 1),
                                          testing::Bool()));

TEST(CompactionTest, LevelMergeSourceStreamsWholeLevel) {
  TreeFixture fx = BuildTree(2000);
  LevelMergeSource src(fx.device.get(), kDefaultNodeSize, fx.tree, fx.log.get(),
                       /*verifier=*/nullptr, /*cache=*/nullptr, IoClass::kCompactionRead);
  ASSERT_TRUE(src.Init().ok());
  uint64_t count = 0;
  std::string prev;
  while (src.Valid()) {
    if (!prev.empty()) {
      EXPECT_LT(prev, src.entry().key);
    }
    prev = src.entry().key;
    count++;
    ASSERT_TRUE(src.Next().ok());
  }
  EXPECT_EQ(count, 2000u);
}

TEST(CompactionTest, CompactionReadsAccountedAsCompactionTraffic) {
  TreeFixture fx = BuildTree(2000);
  fx.device->stats().Reset();
  LevelMergeSource src(fx.device.get(), kDefaultNodeSize, fx.tree, fx.log.get(),
                       /*verifier=*/nullptr, /*cache=*/nullptr, IoClass::kCompactionRead);
  ASSERT_TRUE(src.Init().ok());
  while (src.Valid()) {
    ASSERT_TRUE(src.Next().ok());
  }
  EXPECT_GT(fx.device->stats().ReadBytes(IoClass::kCompactionRead), 0u);
  EXPECT_EQ(fx.device->stats().ReadBytes(IoClass::kLookup), 0u);
}

// What a compaction reads of its input levels: each segment once, whole.
struct InputReads {
  uint64_t bytes = 0;  // Σ checksummed prefixes
  uint64_t ops = 0;    // segments
};
InputReads SegmentReads(std::initializer_list<const BuiltTree*> inputs) {
  InputReads reads;
  for (const BuiltTree* tree : inputs) {
    EXPECT_EQ(tree->seg_checksums.size(), tree->segments.size());
    for (const SegmentChecksum& sc : tree->seg_checksums) {
      reads.bytes += sc.length;
    }
    reads.ops += tree->segments.size();
  }
  return reads;
}

// A compaction streams each input segment once: one device read of its
// checksummed prefix, whose CRC is checked on the very bytes the merge then
// consumes. A verdict an earlier read settled changes nothing: the merge
// reads the same bytes either way, and nothing but the input levels.
TEST(CompactionTest, MergeReadsEachInputSegmentOnce) {
  for (const bool settle : {false, true}) {
    SCOPED_TRACE(settle ? "after a settling scan" : "first touch");
    auto dev = MakeDevice(1 << 16, 1 << 16);
    KvStoreOptions opts;
    opts.l0_max_entries = 1024;
    opts.growth_factor = 4;
    opts.max_levels = 2;
    opts.cache_bytes = 0;
    auto store = KvStore::Create(dev.get(), opts);  // no pool: jobs run inline
    ASSERT_TRUE(store.ok());
    for (uint64_t i = 0; i < 6000; ++i) {
      ASSERT_TRUE((*store)->Put(Key(i * 2), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->ForceFullCompaction().ok());  // all in L2, the last level
    for (uint64_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE((*store)->Put(Key(i * 3), "w" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->FlushL0().ok());
    const BuiltTree l1 = (*store)->level(1);
    const BuiltTree l2 = (*store)->level(2);
    ASSERT_EQ(l1.num_entries, 1000u);
    ASSERT_EQ(l2.num_entries, 6000u);
    ASSERT_GT(l2.segments.size(), 2u) << "several leaf segments and an index one";
    if (settle) {
      ASSERT_TRUE((*store)->Scan(Slice(), 100000).ok());
    }

    const InputReads want = SegmentReads({&l1, &l2});
    dev->stats().Reset();
    ASSERT_TRUE((*store)->ForceFullCompaction().ok());  // L1 + L2 -> L2
    EXPECT_EQ(dev->stats().ReadBytes(IoClass::kCompactionRead), want.bytes);
    EXPECT_EQ(dev->stats().ReadOps(), want.ops);
    EXPECT_EQ(dev->stats().TotalReadBytes(), want.bytes) << "no other I/O class is read";
    ASSERT_TRUE((*store)->level(1).empty());
    EXPECT_EQ((*store)->level(2).num_entries, 6500u);  // 1000 keys, 500 of them overwrites
  }
}

// A compaction merge fetches each level entry's key with one read of the
// record's header + key, sized by the leaf's key_size: the merge's read ops
// are one per input segment plus exactly one per entry.
TEST(CompactionTest, LevelKeyFetchIsOneReadPerEntry) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  KvStoreOptions opts;
  opts.l0_max_entries = 256;
  opts.growth_factor = 4;
  opts.max_levels = 3;
  opts.cache_bytes = 0;
  auto store = KvStore::Create(dev.get(), opts);  // no pool: jobs run inline
  ASSERT_TRUE(store.ok());
  auto long_key = [](uint64_t i) { return "long-key-" + Key(i); };
  ASSERT_GT(long_key(0).size(), kPrefixSize);
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE((*store)->Put(long_key(i * 2), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->FlushL0().ok());
  const BuiltTree l1 = (*store)->level(1);
  ASSERT_EQ(l1.num_entries, 200u);
  ASSERT_GT(l1.height, 0u);
  const InputReads segments = SegmentReads({&l1});
  ASSERT_GT(segments.ops, 1u);

  // L0 (overlapping and fresh keys) -> L1, small enough not to cascade.
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE((*store)->Put(long_key(i * 3), "w" + std::to_string(i)).ok());
  }
  dev->stats().Reset();
  ASSERT_TRUE((*store)->FlushL0().ok());
  EXPECT_TRUE((*store)->level(2).empty());
  EXPECT_EQ(dev->stats().TotalReadBytes(), dev->stats().ReadBytes(IoClass::kCompactionRead));
  EXPECT_EQ(dev->stats().ReadOps(), segments.ops + l1.num_entries);
}

// The sibling of LevelKeyFetchIsOneReadPerEntry for keys of at most
// kPrefixSize bytes (YCSB's 14-byte `user%010d`): the leaf holds each key
// whole, so an L0 -> L1 merge reads the level's segments and no log record.
TEST(CompactionTest, InlineKeyMergeReadsNoLogRecord) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  KvStoreOptions opts;
  opts.l0_max_entries = 256;
  opts.growth_factor = 4;
  opts.max_levels = 3;
  opts.cache_bytes = 0;
  auto store = KvStore::Create(dev.get(), opts);  // no pool: jobs run inline
  ASSERT_TRUE(store.ok());
  auto user_key = [](uint64_t i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "user%010llu", static_cast<unsigned long long>(i));
    return std::string(buf);
  };
  ASSERT_EQ(user_key(0).size(), kPrefixSize);
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE((*store)->Put(user_key(i * 2), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->FlushL0().ok());
  const BuiltTree l1 = (*store)->level(1);
  ASSERT_EQ(l1.num_entries, 200u);
  ASSERT_GT(l1.height, 0u);
  const InputReads segments = SegmentReads({&l1});
  ASSERT_GT(segments.ops, 1u);

  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE((*store)->Put(user_key(i * 3), "w" + std::to_string(i)).ok());
  }
  dev->stats().Reset();
  ASSERT_TRUE((*store)->FlushL0().ok());
  EXPECT_TRUE((*store)->level(2).empty());
  EXPECT_EQ(dev->stats().TotalReadBytes(), segments.bytes);
  EXPECT_EQ(dev->stats().ReadBytes(IoClass::kCompactionRead), segments.bytes);
  EXPECT_EQ(dev->stats().ReadOps(), segments.ops);
  for (uint64_t i = 0; i < 600; ++i) {
    auto v = (*store)->Get(user_key(i));
    if (i % 3 == 0) {
      ASSERT_TRUE(v.ok()) << user_key(i);
      EXPECT_EQ(*v, "w" + std::to_string(i / 3));
    } else if (i % 2 == 0 && i < 400) {
      ASSERT_TRUE(v.ok()) << user_key(i);
      EXPECT_EQ(*v, "v" + std::to_string(i / 2));
    } else {
      EXPECT_TRUE(v.status().IsNotFound()) << user_key(i);
    }
  }
}

// A tombstone the leaf holds (inline key, flag in the entry) is elided when
// its level merges into the last level, and the whole merge reads only the
// two levels' segments: no log record for the surviving keys, none for the
// deleted ones.
TEST(CompactionTest, InlineTombstoneElidedAtLastLevelWithoutLogReads) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  KvStoreOptions opts;
  opts.l0_max_entries = 1024;
  opts.growth_factor = 4;
  opts.max_levels = 2;
  opts.cache_bytes = 0;
  auto store = KvStore::Create(dev.get(), opts);
  ASSERT_TRUE(store.ok());
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->ForceFullCompaction().ok());  // all in L2, the last level
  ASSERT_TRUE((*store)->level(1).empty());
  for (uint64_t i = 0; i < 400; i += 4) {
    ASSERT_TRUE((*store)->Delete(Key(i)).ok());
  }
  ASSERT_TRUE((*store)->FlushL0().ok());  // tombstones land in L1 and stay
  const BuiltTree l1 = (*store)->level(1);
  const BuiltTree l2 = (*store)->level(2);
  ASSERT_EQ(l1.num_entries, 100u);
  {
    BTreeReader reader(dev.get(), nullptr, opts.node_size, l1, IoClass::kOther);
    BTreeIterator it(&reader);
    ASSERT_TRUE(it.SeekToFirst().ok());
    while (it.Valid()) {
      EXPECT_TRUE(it.entry().tombstone());
      EXPECT_TRUE(it.entry().key_inline());
      ASSERT_TRUE(it.Next().ok());
    }
  }
  const InputReads segments = SegmentReads({&l1, &l2});

  dev->stats().Reset();
  ASSERT_TRUE((*store)->ForceFullCompaction().ok());
  EXPECT_EQ(dev->stats().ReadOps(), segments.ops);
  EXPECT_EQ(dev->stats().TotalReadBytes(), segments.bytes);
  EXPECT_EQ(dev->stats().ReadBytes(IoClass::kCompactionRead), segments.bytes);
  ASSERT_TRUE((*store)->level(1).empty());
  EXPECT_EQ((*store)->level(2).num_entries, 300u);
  for (uint64_t i = 0; i < 400; ++i) {
    auto v = (*store)->Get(Key(i));
    if (i % 4 == 0) {
      EXPECT_TRUE(v.status().IsNotFound()) << Key(i);
    } else {
      ASSERT_TRUE(v.ok()) << Key(i);
    }
  }
}

// --- KvStore engine ---------------------------------------------------------------

KvStoreOptions SmallStoreOptions() {
  KvStoreOptions opts;
  opts.l0_max_entries = 256;
  opts.growth_factor = 4;
  opts.max_levels = 3;
  opts.cache_bytes = 0;
  return opts;
}

TEST(KvStoreTest, PutGetSmoke) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  auto store = KvStore::Create(dev.get(), SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("hello", "world").ok());
  auto v = (*store)->Get("hello");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "world");
  EXPECT_TRUE((*store)->Get("missing").status().IsNotFound());
}

TEST(KvStoreTest, OverwriteReturnsNewest) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  auto store = KvStore::Create(dev.get(), SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*store)->Put("k", "v" + std::to_string(i)).ok());
  }
  auto v = (*store)->Get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v4");
}

TEST(KvStoreTest, DeleteHidesKeyAcrossCompactions) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  auto store = KvStore::Create(dev.get(), SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("doomed", "value").ok());
  ASSERT_TRUE((*store)->FlushL0().ok());  // now in L1
  ASSERT_TRUE((*store)->Delete("doomed").ok());
  EXPECT_TRUE((*store)->Get("doomed").status().IsNotFound());
  ASSERT_TRUE((*store)->FlushL0().ok());  // tombstone merges into L1
  EXPECT_TRUE((*store)->Get("doomed").status().IsNotFound());
}

// A deleted key found in a level answers NotFound from the leaf's tombstone
// flag: the Get reads the index nodes on its path and no log record.
TEST(KvStoreTest, GetOfDeletedCompactedKeyReadsNoLogRecord) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  auto store = KvStore::Create(dev.get(), SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "value").ok());
  }
  ASSERT_TRUE((*store)->FlushL0().ok());
  ASSERT_TRUE((*store)->Delete(Key(7)).ok());
  ASSERT_TRUE((*store)->FlushL0().ok());  // the tombstone merges into L1
  const BuiltTree& l1 = (*store)->level(1);
  ASSERT_FALSE(l1.empty());
  ASSERT_TRUE((*store)->level(2).empty());
  ASSERT_GT(l1.height, 0u);
  // A live Get settles L1's checksum verdicts and reads header + body.
  ASSERT_TRUE((*store)->Get(Key(8)).ok());

  dev->stats().Reset();
  EXPECT_TRUE((*store)->Get(Key(7)).status().IsNotFound());
  EXPECT_EQ(dev->stats().ReadOps(), l1.height + 1u) << "index path only, no log record";
  dev->stats().Reset();
  ASSERT_TRUE((*store)->Get(Key(8)).ok());
  EXPECT_EQ(dev->stats().ReadOps(), l1.height + 1u + 2u) << "index path + the value record";
}

TEST(KvStoreTest, CompactionTriggersWhenL0Full) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  auto store = KvStore::Create(dev.get(), SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "value").ok());
  }
  EXPECT_GE(Metric(**store, "kv.compactions"), 1u);
  EXPECT_LT((*store)->l0_entries(), 256u);
  EXPECT_FALSE((*store)->level(1).empty());
  // Everything still readable.
  for (int i = 0; i < 300; ++i) {
    auto v = (*store)->Get(Key(i));
    ASSERT_TRUE(v.ok()) << Key(i) << " " << v.status().ToString();
  }
}

TEST(KvStoreTest, LargeWorkloadWithOverwritesStaysConsistent) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  auto store = KvStore::Create(dev.get(), SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  Random rng(77);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 20000; ++i) {
    std::string key = Key(rng.Uniform(3000));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE((*store)->Put(key, value).ok());
    model[key] = value;
  }
  EXPECT_GT(Metric(**store, "kv.compactions"), 5u);
  for (const auto& [key, value] : model) {
    auto v = (*store)->Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, value) << key;
  }
}

TEST(KvStoreTest, ScanMergesLevelsAndSkipsTombstones) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  auto store = KvStore::Create(dev.get(), SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 600; ++i) {  // spans L0 and L1
    ASSERT_TRUE((*store)->Put(Key(i), "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->Delete(Key(100)).ok());
  auto scan = (*store)->Scan(Key(98), 5);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 5u);
  EXPECT_EQ((*scan)[0].key, Key(98));
  EXPECT_EQ((*scan)[1].key, Key(99));
  EXPECT_EQ((*scan)[2].key, Key(101));  // 100 deleted
  EXPECT_EQ((*scan)[3].key, Key(102));
  EXPECT_EQ((*scan)[2].value, "value101");
}

TEST(KvStoreTest, ScanFromStartReturnsEverything) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  auto store = KvStore::Create(dev.get(), SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "x").ok());
  }
  auto scan = (*store)->Scan(Slice(), 10000);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), static_cast<size_t>(n));
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_LT((*scan)[i].key, (*scan)[i + 1].key);
  }
}

TEST(KvStoreTest, CascadingCompactionsReachDeeperLevels) {
  auto dev = MakeDevice(1 << 16, 1 << 17);
  KvStoreOptions opts = SmallStoreOptions();
  opts.l0_max_entries = 128;
  auto store = KvStore::Create(dev.get(), opts);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "payload").ok());
  }
  EXPECT_FALSE((*store)->level(2).empty());
  for (int i = 0; i < 4000; i += 37) {
    ASSERT_TRUE((*store)->Get(Key(i)).ok()) << i;
  }
}

TEST(KvStoreTest, CompactionObserverLifecycle) {
  struct Obs : CompactionObserver {
    void OnCompactionBegin(const CompactionInfo& info) override { begins.push_back(info); }
    void OnIndexSegment(const CompactionInfo&, int, SegmentId, Slice bytes, uint32_t) override {
      segment_bytes += bytes.size();
    }
    void OnCompactionEnd(const CompactionInfo& info, const BuiltTree& tree) override {
      ends.push_back(info);
      last_tree = tree;
    }
    std::vector<CompactionInfo> begins, ends;
    uint64_t segment_bytes = 0;
    BuiltTree last_tree;
  } obs;
  auto dev = MakeDevice(1 << 16, 1 << 16);
  auto store = KvStore::Create(dev.get(), SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  (*store)->set_compaction_observer(&obs);
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "v").ok());
  }
  ASSERT_FALSE(obs.begins.empty());
  EXPECT_EQ(obs.begins.size(), obs.ends.size());
  EXPECT_GT(obs.segment_bytes, 0u);
  EXPECT_FALSE(obs.last_tree.empty());
  EXPECT_EQ(obs.begins[0].src_level, 0);
  EXPECT_EQ(obs.begins[0].dst_level, 1);
}

TEST(KvStoreTest, FreedSegmentsAreRecycledNotLeaked) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  auto store = KvStore::Create(dev.get(), SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i % 500), "value" + std::to_string(i)).ok());
  }
  // Allocated segments must be bounded: levels + value log, not one per
  // compaction.
  uint64_t log_segments = (*store)->value_log()->flushed_segments().size() + 1;
  uint64_t level_segments = 0;
  for (uint32_t l = 1; l <= 3; ++l) {
    level_segments += (*store)->level(l).segments.size();
  }
  EXPECT_EQ(dev->AllocatedSegments(), log_segments + level_segments);
}

TEST(KvStoreTest, ReplayRecordRebuildsL0) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  auto store = KvStore::Create(dev.get(), SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  auto res = (*store)->value_log()->Append("replayed", "val", false);
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE((*store)->ReplayRecord("replayed", res->offset, false).ok());
  auto v = (*store)->Get("replayed");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "val");
}

TEST(KvStoreTest, GcReclaimsLogSegments) {
  auto dev = MakeDevice(1 << 14, 1 << 16);  // small 16K segments
  KvStoreOptions opts = SmallStoreOptions();
  opts.l0_max_entries = 64;
  auto store = KvStore::Create(dev.get(), opts);
  ASSERT_TRUE(store.ok());
  // Overwrite a small key set many times: most log bytes become garbage.
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i % 50), std::string(100, 'a' + (i % 26))).ok());
  }
  const size_t before = (*store)->value_log()->flushed_segments().size();
  ASSERT_GT(before, 4u);
  auto freed = (*store)->GarbageCollectHead(4);
  ASSERT_TRUE(freed.ok()) << freed.status().ToString();
  EXPECT_EQ(*freed, 4u);
  // All 50 keys still readable with their newest values.
  for (int k = 0; k < 50; ++k) {
    ASSERT_TRUE((*store)->Get(Key(k)).ok()) << k;
  }
}

TEST(KvStoreTest, GcThenCompactionsDoNotTouchFreedSegments) {
  auto dev = MakeDevice(1 << 14, 1 << 16);
  KvStoreOptions opts = SmallStoreOptions();
  opts.l0_max_entries = 64;
  auto store = KvStore::Create(dev.get(), opts);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i % 40), "value-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->GarbageCollectHead(3).ok());
  // Trigger more compactions; they must not read the trimmed segments.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i % 40), "after-" + std::to_string(i)).ok());
  }
  for (int k = 0; k < 40; ++k) {
    auto v = (*store)->Get(Key(k));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->rfind("after-", 0), 0u) << *v;
  }
}

TEST(KvStoreTest, CacheReducesLookupTraffic) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  KvStoreOptions opts = SmallStoreOptions();
  opts.cache_bytes = 8 << 20;
  auto store = KvStore::Create(dev.get(), opts);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "cached-value").ok());
  }
  ASSERT_TRUE((*store)->FlushL0().ok());
  // First pass faults pages; second pass should be nearly free.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*store)->Get(Key(i)).ok());
  }
  uint64_t after_first = dev->stats().ReadBytes(IoClass::kLookup);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*store)->Get(Key(i)).ok());
  }
  uint64_t after_second = dev->stats().ReadBytes(IoClass::kLookup);
  EXPECT_EQ(after_first, after_second);
  EXPECT_GT((*store)->cache()->hits(), 0u);
}

TEST(KvStoreTest, StatsAccumulate) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  auto store = KvStore::Create(dev.get(), SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "v").ok());
  }
  ASSERT_TRUE((*store)->Get(Key(5)).ok());
  EXPECT_EQ(Metric(**store, "kv.puts"), 300u);
  EXPECT_EQ(Metric(**store, "kv.gets"), 1u);
  EXPECT_GT(Metric(**store, "kv.insert_l0_cpu_ns"), 0u);
  EXPECT_GT(Metric(**store, "kv.compaction_cpu_ns"), 0u);
}

TEST(KvStoreTest, RejectsBadOptions) {
  auto dev = MakeDevice(1 << 16);
  KvStoreOptions opts;
  opts.node_size = 1000;  // does not divide segment size
  EXPECT_FALSE(KvStore::Create(dev.get(), opts).ok());
  opts = KvStoreOptions{};
  opts.growth_factor = 1;
  EXPECT_FALSE(KvStore::Create(dev.get(), opts).ok());
}

// Property: after any interleaving of puts/deletes/flushes, the store agrees
// with a std::map model, both for gets and full scans.
class KvStorePropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(KvStorePropertyTest, MatchesModelUnderRandomOps) {
  auto dev = MakeDevice(1 << 16, 1 << 16);
  KvStoreOptions opts = SmallStoreOptions();
  opts.l0_max_entries = 128;
  auto store = KvStore::Create(dev.get(), opts);
  ASSERT_TRUE(store.ok());
  Random rng(GetParam());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 5000; ++i) {
    const int op = static_cast<int>(rng.Uniform(10));
    std::string key = Key(rng.Uniform(400));
    if (op < 6) {
      std::string value = rng.Bytes(1 + rng.Uniform(200));
      ASSERT_TRUE((*store)->Put(key, value).ok());
      model[key] = value;
    } else if (op < 8) {
      ASSERT_TRUE((*store)->Delete(key).ok());
      model.erase(key);
    } else if (op == 8) {
      auto got = (*store)->Get(key);
      auto expect = model.find(key);
      if (expect == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(got.ok()) << key;
        EXPECT_EQ(*got, expect->second);
      }
    } else {
      ASSERT_TRUE((*store)->FlushL0().ok());
    }
  }
  // Final full-scan equivalence.
  auto scan = (*store)->Scan(Slice(), 1 << 20);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), model.size());
  auto expect = model.begin();
  for (const auto& kv : *scan) {
    EXPECT_EQ(kv.key, expect->first);
    EXPECT_EQ(kv.value, expect->second);
    ++expect;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvStorePropertyTest, testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace tebis
