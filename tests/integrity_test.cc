// PR 8 end-to-end integrity: checksummed segments, seeded corruption faults,
// background scrub, and epoch-fenced online repair from peer replicas.
//
// The tests walk the stack bottom-up: KvStore read-path verification and
// scrub/quarantine/repair, the Send-Index replication pair (backup heals from
// primary, primary heals from backup — byte-identical in primary space,
// §3.3), the cluster wire protocol (kRepairFetch / kRepairSegment, epoch
// fencing), the client's corruption failover, and a seeded RF=3 corruption
// chaos soak where every injected flip must be detected and healed online.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/master.h"
#include "src/cluster/region_map.h"
#include "src/cluster/region_server.h"
#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/lsm/bloom_filter.h"
#include "src/lsm/btree_reader.h"
#include "src/lsm/compaction.h"
#include "src/lsm/index_codec.h"
#include "src/lsm/kv_store.h"
#include "src/lsm/level_read.h"
#include "src/lsm/manifest.h"
#include "src/lsm/segment_verifier.h"
#include "src/lsm/value_log.h"
#include "src/net/fabric.h"
#include "src/net/rpc_client.h"
#include "src/net/worker_pool.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/replication_wire.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"
#include "src/telemetry/health.h"
#include "src/telemetry/telemetry.h"
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

// Longer than kPrefixSize, so leaves hold only its prefix and every merge or
// tied lookup fetches it from the value log.
std::string LongKey(uint64_t i) { return "long-" + Key(i); }

std::string ValueFor(uint64_t i) { return "value-" + std::to_string(i); }

// Chaos runs are seeded from the environment for replay: failing seeds print
// in the test output and TEBIS_CHAOS_SEED pins them.
uint64_t ChaosSeed(uint64_t fallback) {
  const char* env = std::getenv("TEBIS_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return fallback;
}

// The deepest published level with at least one segment, or -1.
template <typename Engine>
int DeepestNonEmptyLevel(const Engine& engine, int max_levels) {
  for (int level = max_levels - 1; level >= 1; --level) {
    const BuiltTree& tree = engine.level(level);
    if (!tree.segments.empty()) {
      return level;
    }
  }
  return -1;
}

// Burns seeded bit flips into the checksummed prefix of one index segment.
// FlipBitsInRange fires on the device's *next* read, whatever it targets, so
// a 1-byte probe read triggers the burn deterministically.
void BurnFlipsIntoSegment(BlockDevice* device, FaultInjector* injector, const BuiltTree& tree,
                          size_t seg_index, int bits = 3) {
  ASSERT_LT(seg_index, tree.segments.size());
  ASSERT_EQ(tree.seg_checksums.size(), tree.segments.size());
  const SegmentChecksum& sc = tree.seg_checksums[seg_index];
  ASSERT_GT(sc.length, 0u);
  const uint64_t base = device->geometry().BaseOffset(tree.segments[seg_index]);
  injector->FlipBitsInRange(device->name(), base, sc.length, bits);
  char probe = 0;
  ASSERT_TRUE(device->Read(base, 1, &probe, IoClass::kOther).ok());
}

// --- KvStore: checksummed build -------------------------------------------

struct LoadedStore {
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<KvStore> store;
  std::map<std::string, std::string> model;
};

LoadedStore MakeLoadedStore(const std::string& device_name, FaultInjector* injector = nullptr,
                            int keys = 2000, std::string (*key_of)(uint64_t) = Key) {
  LoadedStore ls;
  ls.device = MakeDevice(device_name);
  if (injector != nullptr) {
    ls.device->set_fault_hook(injector);
  }
  auto store = KvStore::Create(ls.device.get(), SmallOptions());
  EXPECT_TRUE(store.ok());
  ls.store = std::move(*store);
  for (int i = 0; i < keys; ++i) {
    const std::string key = key_of(i % (keys / 2));
    const std::string value = ValueFor(i);
    EXPECT_TRUE(ls.store->Put(key, value).ok());
    ls.model[key] = value;
  }
  EXPECT_TRUE(ls.store->FlushL0().ok());
  return ls;
}

TEST(IntegrityBuildTest, CompactionProducesChecksummedLevels) {
  auto ls = MakeLoadedStore("dev0");
  ASSERT_GT(Metric(*ls.store, "kv.compactions"), 0u);
  const int level = DeepestNonEmptyLevel(*ls.store, SmallOptions().max_levels);
  ASSERT_GE(level, 1) << "no checksummed level was published";
  const BuiltTree& tree = ls.store->level(level);
  ASSERT_EQ(tree.seg_checksums.size(), tree.segments.size());
  for (size_t i = 0; i < tree.segments.size(); ++i) {
    const SegmentChecksum& sc = tree.seg_checksums[i];
    EXPECT_GT(sc.length, 0u) << "segment " << i;
    EXPECT_LE(sc.length, kSegmentSize) << "segment " << i;
    // The recorded CRC matches a fresh read of the device bytes.
    std::string bytes(sc.length, 0);
    const uint64_t base = ls.device->geometry().BaseOffset(tree.segments[i]);
    ASSERT_TRUE(ls.device->Read(base, sc.length, bytes.data(), IoClass::kOther).ok());
    EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), sc.crc) << "segment " << i;
  }
}

// --- KvStore: read-path detection + quarantine -----------------------------

TEST(IntegrityReadTest, ReadPathDetectsBitRotAndQuarantines) {
  FaultInjector injector;
  auto ls = MakeLoadedStore("dev0", &injector);
  const int level = DeepestNonEmptyLevel(*ls.store, SmallOptions().max_levels);
  ASSERT_GE(level, 1);
  BurnFlipsIntoSegment(ls.device.get(), &injector, ls.store->level(level), 0);
  ASSERT_GE(injector.stats().corruptions, 1u);

  // Some read must walk the damaged segment: the first one to touch it fails
  // verification and quarantines the level; later reads of that level keep
  // failing without re-reading the device.
  std::string corrupt_key;
  for (const auto& [key, value] : ls.model) {
    auto got = ls.store->Get(key);
    if (!got.ok()) {
      ASSERT_TRUE(got.status().IsCorruption()) << key << ": " << got.status().ToString();
      corrupt_key = key;
      break;
    }
    EXPECT_EQ(*got, value) << key << " served wrong bytes instead of failing";
  }
  ASSERT_FALSE(corrupt_key.empty()) << "no read ever touched the rotten segment";
  EXPECT_EQ(ls.store->QuarantinedLevels(), std::vector<int>{level});
  EXPECT_GE(Metric(*ls.store, "kv.read_corruptions"), 1u);
  EXPECT_EQ(ls.store->QuarantinedLevels().size(), 1u);
  // Quarantine is sticky: the same key keeps failing, never serves rot.
  EXPECT_TRUE(ls.store->Get(corrupt_key).status().IsCorruption());
  // Writes keep flowing while the level is quarantined (degraded, not down).
  EXPECT_TRUE(ls.store->Put("fresh-key", "fresh-value").ok());
  auto fresh = ls.store->Get("fresh-key");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, "fresh-value");
}

TEST(IntegrityReadTest, ValueLogRotSurfacesAsReadCorruption) {
  FaultInjector injector;
  auto ls = MakeLoadedStore("dev0", &injector);
  const auto flushed = ls.store->value_log()->FlushedSegmentsSnapshot();
  ASSERT_FALSE(flushed.empty());
  // Rot every flushed log segment. A read whose value record fails its CRC
  // must answer kCorruption (naming device + offset) and bump the
  // kv.read_corruptions counter; a read whose *key compare* walked rotten
  // bytes may answer NotFound. What must never happen is serving wrong bytes.
  for (SegmentId seg : flushed) {
    const uint64_t base = ls.device->geometry().BaseOffset(seg);
    injector.FlipBitsInRange(ls.device->name(), base, kSegmentSize, /*bits=*/64);
    char probe = 0;
    ASSERT_TRUE(ls.device->Read(base, 1, &probe, IoClass::kOther).ok());
  }

  uint64_t corrupt_reads = 0;
  for (const auto& [key, value] : ls.model) {
    auto got = ls.store->Get(key);
    if (!got.ok()) {
      EXPECT_TRUE(got.status().IsCorruption() || got.status().IsNotFound())
          << key << ": " << got.status().ToString();
      if (got.status().IsCorruption()) {
        EXPECT_NE(got.status().ToString().find("dev0"), std::string::npos)
            << "corruption report must name the device: " << got.status().ToString();
        ++corrupt_reads;
      }
    } else {
      EXPECT_EQ(*got, value) << key << " served wrong bytes instead of failing";
    }
  }
  ASSERT_GT(corrupt_reads, 0u) << "no read landed in a rotten record";
  EXPECT_GE(Metric(*ls.store, "kv.read_corruptions"), corrupt_reads);

  // The value-log scrub walk detects the rot too (the catch-all for damage
  // reads happen to dodge); the value log is not a level, so nothing
  // quarantines.
  KvStore::ScrubOptions options;
  options.include_value_log = true;
  auto report = ls.store->Scrub(options);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->corruptions_found, 1u);
}

// Every record in the flushed segments of `log`, in flush then append order,
// with the segment images they were parsed from.
struct FlushedRecords {
  std::vector<LogRecord> records;
  std::map<uint64_t, std::string> images;  // segment base offset -> bytes
};

FlushedRecords ReadFlushedRecords(BlockDevice* device, ValueLog* log) {
  FlushedRecords out;
  for (SegmentId seg : log->FlushedSegmentsSnapshot()) {
    const uint64_t base = device->geometry().BaseOffset(seg);
    std::string& bytes = out.images[base];
    bytes.assign(device->segment_size(), '\0');
    EXPECT_TRUE(device->Read(base, bytes.size(), bytes.data(), IoClass::kOther).ok());
    EXPECT_TRUE(ValueLog::ForEachRecord(Slice(bytes), base, [&](const LogRecord& rec) {
                  out.records.push_back(rec);
                  return Status::Ok();
                }).ok());
  }
  return out;
}

// The offset of the flushed record holding the live version of some key of
// `model`, or kInvalidOffset; sets `*key`.
uint64_t LiveFlushedRecord(const FlushedRecords& flushed,
                           const std::map<std::string, std::string>& model, std::string* key) {
  std::map<std::string, const LogRecord*> newest;
  for (const LogRecord& rec : flushed.records) {
    newest[rec.key] = &rec;
  }
  for (const auto& [k, rec] : newest) {
    auto it = model.find(k);
    if (!rec->tombstone && it != model.end() && it->second == rec->value) {
      *key = k;
      return rec->offset;
    }
  }
  return kInvalidOffset;
}

// Copies another valid, live record of the same encoded size over the
// record at `victim`: every CRC still passes, but the record no longer holds
// the key whose index entry points at it. Returns the donor's key, or an
// empty string when no donor exists.
std::string CopyOtherRecordOver(BlockDevice* device, const FlushedRecords& flushed,
                                uint64_t victim) {
  const LogRecord* target = nullptr;
  for (const LogRecord& rec : flushed.records) {
    if (rec.offset == victim) {
      target = &rec;
    }
  }
  if (target == nullptr) {
    return "";
  }
  for (const LogRecord& rec : flushed.records) {
    if (rec.tombstone || rec.key == target->key || rec.encoded_size != target->encoded_size) {
      continue;
    }
    const uint64_t base = device->geometry().BaseOffset(device->geometry().SegmentOf(rec.offset));
    const std::string& image = flushed.images.at(base);
    const Slice donor(image.data() + (rec.offset - base), rec.encoded_size);
    EXPECT_TRUE(device->Write(victim, donor, IoClass::kOther).ok());
    return rec.key;
  }
  return "";
}

// Rewrites the key-size field of the record header at `offset` to `size`.
void RewriteRecordKeySize(BlockDevice* device, uint64_t offset, uint32_t size) {
  char header[sizeof(size)];
  memcpy(header, &size, sizeof(size));
  ASSERT_TRUE(device->Write(offset, Slice(header, sizeof(header)), IoClass::kOther).ok());
}

// A leaf records each key's size, and a fetch of a key longer than the leaf
// prefix reads exactly that many bytes after the record header. A flushed
// record whose header disagrees — here rewritten to another valid size —
// must fail the fetch as kCorruption naming device and offset, for a point
// read and for a compaction merge alike: never a wrong (truncated) key,
// never a silent NotFound.
TEST(IntegrityReadTest, LogKeySizeMismatchIsCorruption) {
  auto ls = MakeLoadedStore("dev0", nullptr, 2000, LongKey);
  std::string key;
  const uint64_t offset = LiveFlushedRecord(
      ReadFlushedRecords(ls.device.get(), ls.store->value_log()), ls.model, &key);
  ASSERT_NE(offset, kInvalidOffset) << "no live record was flushed";
  ASSERT_GT(key.size(), kPrefixSize) << "the lookup must fetch the full key";
  ASSERT_TRUE(ls.store->Get(key).ok());

  RewriteRecordKeySize(ls.device.get(), offset, static_cast<uint32_t>(key.size() - 1));

  auto got = ls.store->Get(key);
  ASSERT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  EXPECT_NE(got.status().ToString().find("dev0"), std::string::npos) << got.status().ToString();
  EXPECT_NE(got.status().ToString().find(std::to_string(offset)), std::string::npos)
      << got.status().ToString();

  // Fresh keys put data in L1, so a full compaction merges every level and
  // fetches every entry's key, the damaged one included.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ls.store->Put(LongKey(100000 + i), ValueFor(i)).ok());
  }
  Status compaction = ls.store->ForceFullCompaction();
  ASSERT_TRUE(compaction.IsCorruption()) << compaction.ToString();
  EXPECT_NE(compaction.ToString().find(std::to_string(offset)), std::string::npos)
      << compaction.ToString();
}

// The inline-key sibling: a leaf holds a key of at most kPrefixSize bytes
// whole, so neither a lookup nor a merge reads the damaged header's key. A
// Get still reads the record for its value and fails its CRC (kCorruption
// naming device and offset); a full compaction merges the leaf's key
// correctly and keeps pointing it at the same record.
TEST(IntegrityReadTest, InlineKeyLogSizeMismatchFailsGetButNotMerge) {
  auto ls = MakeLoadedStore("dev0");
  std::string key;
  const uint64_t offset = LiveFlushedRecord(
      ReadFlushedRecords(ls.device.get(), ls.store->value_log()), ls.model, &key);
  ASSERT_NE(offset, kInvalidOffset) << "no live record was flushed";
  ASSERT_LE(key.size(), kPrefixSize) << "the leaf must hold the key whole";
  ASSERT_TRUE(ls.store->Get(key).ok());

  RewriteRecordKeySize(ls.device.get(), offset, static_cast<uint32_t>(key.size() - 1));

  auto got = ls.store->Get(key);
  ASSERT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  EXPECT_NE(got.status().ToString().find("dev0"), std::string::npos) << got.status().ToString();
  EXPECT_NE(got.status().ToString().find(std::to_string(offset)), std::string::npos)
      << got.status().ToString();

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ls.store->Put(Key(100000 + i), ValueFor(i)).ok());
  }
  ASSERT_TRUE(ls.store->ForceFullCompaction().ok());
  const uint32_t last = SmallOptions().max_levels;
  BTreeReader reader(ls.device.get(), nullptr, SmallOptions().node_size, ls.store->level(last),
                     IoClass::kOther);
  auto no_log = [](uint64_t, size_t) -> StatusOr<std::string> {
    return Status::Internal("an inline key needs no log read");
  };
  auto entry = reader.Find(key, KeyHash(key), no_log);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  EXPECT_EQ(entry->log_offset(), offset);
  EXPECT_EQ(entry->inline_key().ToString(), key);
  EXPECT_TRUE(ls.store->Get(key).status().IsCorruption());
  // Every other key survived the merge.
  for (const auto& [k, value] : ls.model) {
    if (k == key) {
      continue;
    }
    auto other = ls.store->Get(k);
    ASSERT_TRUE(other.ok()) << k << ": " << other.status().ToString();
    EXPECT_EQ(*other, value);
  }
}

// An index entry decides which key an offset serves, and a lookup of a key
// the leaf holds whole never reads the log's copy of it. So the record a Get
// reads for the value must be compared with the probe key: a valid record of
// another key, copied over the live one (every CRC intact), is kCorruption
// naming device and offset and counted as a read corruption, never the
// other key's value.
TEST(IntegrityReadTest, WrongRecordUnderLiveKeyIsCorruption) {
  auto ls = MakeLoadedStore("dev0");
  const FlushedRecords flushed = ReadFlushedRecords(ls.device.get(), ls.store->value_log());
  std::string key;
  const uint64_t offset = LiveFlushedRecord(flushed, ls.model, &key);
  ASSERT_NE(offset, kInvalidOffset) << "no live record was flushed";
  ASSERT_TRUE(ls.store->Get(key).ok());
  const std::string donor = CopyOtherRecordOver(ls.device.get(), flushed, offset);
  ASSERT_FALSE(donor.empty()) << "no same-size record to copy";

  const uint64_t corruptions = Metric(*ls.store, "kv.read_corruptions");
  auto got = ls.store->Get(key);
  ASSERT_TRUE(got.status().IsCorruption()) << (got.ok() ? *got : got.status().ToString());
  EXPECT_NE(got.status().ToString().find("dev0"), std::string::npos) << got.status().ToString();
  EXPECT_NE(got.status().ToString().find(std::to_string(offset)), std::string::npos)
      << got.status().ToString();
  EXPECT_EQ(Metric(*ls.store, "kv.read_corruptions"), corruptions + 1);
}

// --- KvStore: scrub --------------------------------------------------------

TEST(IntegrityScrubTest, ScrubFindsSeededRotAndQuarantines) {
  FaultInjector injector;
  auto ls = MakeLoadedStore("dev0", &injector);
  const int level = DeepestNonEmptyLevel(*ls.store, SmallOptions().max_levels);
  ASSERT_GE(level, 1);

  // A clean store scrubs clean.
  auto clean = ls.store->Scrub();
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->corruptions_found, 0u);
  EXPECT_GT(clean->bytes_scrubbed, 0u);
  EXPECT_TRUE(clean->quarantined_levels.empty());

  BurnFlipsIntoSegment(ls.device.get(), &injector, ls.store->level(level), 0);
  auto report = ls.store->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->corruptions_found, 1u);
  EXPECT_EQ(report->quarantined_levels, std::vector<int>{level});
  EXPECT_EQ(ls.store->QuarantinedLevels(), std::vector<int>{level});
  EXPECT_GE(Metric(*ls.store, "integrity.corruptions_found"), 1u);
  EXPECT_GT(Metric(*ls.store, "integrity.scrub_bytes"), clean->bytes_scrubbed);
  // Scrub reads are accounted to their own I/O class (observable pacing).
  EXPECT_GT(ls.device->stats().ReadBytes(IoClass::kScrub), 0u);
}

TEST(IntegrityScrubTest, ScheduledScrubRunsInBackground) {
  // Background scrubs ride the compaction WorkerPool as low-priority jobs.
  FaultInjector injector;
  auto device = MakeDevice("dev0");
  device->set_fault_hook(&injector);
  WorkerPool pool(2);
  pool.Start();
  KvStoreOptions opts = SmallOptions();
  opts.compaction_pool = &pool;
  auto store_or = KvStore::Create(device.get(), opts);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(*store_or);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store->Put(Key(i % 1000), ValueFor(i)).ok());
  }
  ASSERT_TRUE(store->FlushL0().ok());
  const int level = DeepestNonEmptyLevel(*store, SmallOptions().max_levels);
  ASSERT_GE(level, 1);
  BurnFlipsIntoSegment(device.get(), &injector, store->level(level), 0);

  std::promise<KvStore::ScrubReport> done;
  auto fut = done.get_future();
  ASSERT_TRUE(store
                  ->ScheduleScrub(KvStore::ScrubOptions(),
                                  [&](const StatusOr<KvStore::ScrubReport>& report) {
                                    ASSERT_TRUE(report.ok());
                                    done.set_value(*report);
                                  })
                  .ok());
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_GE(fut.get().corruptions_found, 1u);
  EXPECT_EQ(store->QuarantinedLevels(), std::vector<int>{level});
  store.reset();  // the store must drain before the pool stops
  pool.Stop();
}

TEST(IntegrityScrubTest, ScrubPacingThrottlesBandwidth) {
  // Scrub charges the bytes it reads, so the store must hold several
  // segments' worth for pacing to outlast the one-segment burst.
  auto ls = MakeLoadedStore("dev0", /*injector=*/nullptr, /*keys=*/6000);
  auto unpaced = ls.store->Scrub();
  ASSERT_TRUE(unpaced.ok());
  const uint64_t total = unpaced->bytes_scrubbed;
  ASSERT_GT(total, 4 * kSegmentSize) << "too little data to pace";

  // Pace at ~4x-total-per-second: the scrub must take at least a significant
  // fraction of the ideal time (lower bound only — sanitizers only slow it).
  KvStore::ScrubOptions options;
  options.bytes_per_sec = total * 4;
  const auto begin = std::chrono::steady_clock::now();
  auto paced = ls.store->Scrub(options);
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  ASSERT_TRUE(paced.ok());
  EXPECT_EQ(paced->bytes_scrubbed, total);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 50);
}

// --- compaction inputs: the merge reads what it checks ---------------------

// A compaction streams each input segment once and checks its CRC on the
// very bytes it merges, even when an earlier read already settled the
// segment's verdict: a flip the device serves to the compaction's own read
// fails the merge with kCorruption and quarantines the level, and nothing is
// published.
TEST(IntegrityCompactionTest, RotServedToCompactionFailsItAndPublishesNothing) {
  FaultInjector injector(ChaosSeed(29));
  auto ls = MakeLoadedStore("dev0", &injector);
  const uint32_t levels = SmallOptions().max_levels;
  std::vector<BuiltTree> before;
  for (uint32_t i = 1; i <= levels; ++i) {
    before.push_back(ls.store->level(i));
  }
  ASSERT_FALSE(ls.store->level(1).empty()) << "the compaction needs an L1 input";
  // A clean scrub settles every verdict, so no first-touch check is left to
  // catch the flip.
  auto clean = ls.store->Scrub();
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->corruptions_found, 0u);

  // The store's next device read is the compaction's first input read.
  injector.CorruptNthDeviceRead("dev0", ls.device->read_seq(), /*bits=*/3);
  Status compacted = ls.store->ForceFullCompaction();
  ASSERT_GE(injector.stats().corruptions, 1u);
  ASSERT_TRUE(compacted.IsCorruption()) << compacted.ToString();
  EXPECT_EQ(ls.store->QuarantinedLevels(), std::vector<int>{1});
  for (uint32_t i = 1; i <= levels; ++i) {
    EXPECT_EQ(ls.store->level(i).root_offset, before[i - 1].root_offset) << "L" << i;
    EXPECT_EQ(ls.store->level(i).segments, before[i - 1].segments) << "L" << i;
  }
}

// The merge half of the same contract, with the level's verifier in hand:
// the flipped input fails the merge until InstallRepairedSegment puts good
// bytes back, and then the same merge succeeds with every entry.
TEST(IntegrityCompactionTest, RotInMergeInputFailsUntilRepaired) {
  FaultInjector injector(ChaosSeed(29));
  auto device = MakeDevice("dev0");
  device->set_fault_hook(&injector);
  auto log = ValueLog::Create(device.get());
  ASSERT_TRUE(log.ok());
  const size_t node_size = SmallOptions().node_size;
  // Inline keys: the merge reads the two levels and no log record.
  std::map<std::string, uint64_t> model;
  auto build = [&](uint64_t n, uint64_t step) {
    BTreeBuilder builder(device.get(), node_size, IoClass::kCompactionWrite, nullptr);
    for (uint64_t i = 0; i < n; ++i) {
      const std::string key = Key(i * step);
      auto appended = (*log)->Append(key, ValueFor(i), /*tombstone=*/false);
      EXPECT_TRUE(appended.ok());
      EXPECT_TRUE(builder.Add(key, appended->offset, /*tombstone=*/false).ok());
      model.emplace(key, appended->offset);  // the newer level is built first and wins
    }
    auto tree = builder.Finish();
    EXPECT_TRUE(tree.ok());
    EXPECT_EQ(tree->seg_checksums.size(), tree->segments.size());
    return *tree;
  };
  const BuiltTree newer = build(2000, 3);
  const BuiltTree older = build(6000, 2);
  ASSERT_TRUE((*log)->FlushTail().ok());
  ASSERT_GT(newer.height, 0u);
  SegmentVerifier newer_verifier(device.get(), newer.segments, newer.seg_checksums, "L1");
  SegmentVerifier older_verifier(device.get(), older.segments, older.seg_checksums, "L2");
  std::vector<std::string> good;
  for (size_t i = 0; i < newer.segments.size(); ++i) {
    auto bytes = ReadSegmentVerified(device.get(), newer, 1, i);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    good.push_back(std::move(*bytes));
  }
  for (size_t i = 0; i < newer.segments.size(); ++i) {
    ASSERT_TRUE(newer_verifier.VerifySegment(i, IoClass::kScrub, /*force=*/false).ok());
  }

  auto merge = [&]() -> StatusOr<BuiltTree> {
    LevelMergeSource a(device.get(), node_size, newer, log->get(), &newer_verifier,
                       /*cache=*/nullptr, IoClass::kCompactionRead);
    LevelMergeSource b(device.get(), node_size, older, log->get(), &older_verifier,
                       /*cache=*/nullptr, IoClass::kCompactionRead);
    TEBIS_RETURN_IF_ERROR(a.Init());
    TEBIS_RETURN_IF_ERROR(b.Init());
    BTreeBuilder out(device.get(), node_size, IoClass::kCompactionWrite, nullptr);
    TEBIS_RETURN_IF_ERROR(MergeSources({&a, &b}, /*drop_tombstones=*/true, &out).status());
    return out.Finish();
  };

  // The merge's first read is the newer level's root segment.
  injector.CorruptNthDeviceRead("dev0", device->read_seq(), /*bits=*/3);
  auto failed = merge();
  ASSERT_GE(injector.stats().corruptions, 1u);
  ASSERT_TRUE(failed.status().IsCorruption()) << failed.status().ToString();
  EXPECT_TRUE(newer_verifier.quarantined());
  const std::vector<size_t> bad = newer_verifier.BadSegments();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(newer.segments[bad[0]], device->geometry().SegmentOf(newer.root_offset));
  EXPECT_TRUE(merge().status().IsCorruption()) << "a quarantined input stays refused";

  ASSERT_TRUE(InstallRepairedSegment(device.get(), /*cache=*/nullptr, &newer_verifier, bad[0],
                                     Slice(good[bad[0]]))
                  .ok());
  EXPECT_FALSE(newer_verifier.quarantined());
  auto merged = merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged->num_entries, model.size());
  BTreeReader reader(device.get(), nullptr, node_size, *merged, IoClass::kOther);
  BTreeIterator it(&reader);
  ASSERT_TRUE(it.SeekToFirst().ok());
  for (const auto& [key, offset] : model) {
    ASSERT_TRUE(it.Valid()) << key;
    EXPECT_EQ(it.entry().inline_key().ToString(), key);
    EXPECT_EQ(it.entry().log_offset(), offset) << key;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_FALSE(it.Valid());
}

// --- KvStore: online repair ------------------------------------------------

TEST(IntegrityRepairTest, OnlineRepairRestoresLevelFromFetchedBytes) {
  FaultInjector injector;
  auto ls = MakeLoadedStore("dev0", &injector);
  const int level = DeepestNonEmptyLevel(*ls.store, SmallOptions().max_levels);
  ASSERT_GE(level, 1);
  const BuiltTree& tree = ls.store->level(level);

  // Stash every segment's good bytes first (the "healthy peer").
  std::map<size_t, std::string> good;
  for (size_t i = 0; i < tree.segments.size(); ++i) {
    auto bytes = ls.store->ReadLevelSegmentVerified(level, i);
    ASSERT_TRUE(bytes.ok()) << "segment " << i << ": " << bytes.status().ToString();
    good[i] = std::move(*bytes);
  }

  BurnFlipsIntoSegment(ls.device.get(), &injector, tree, 0);
  auto report = ls.store->Scrub();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->quarantined_levels, std::vector<int>{level});
  // The donor side refuses to serve rot.
  EXPECT_TRUE(ls.store->ReadLevelSegmentVerified(level, 0).status().IsCorruption());

  uint64_t fetches = 0;
  ASSERT_TRUE(ls.store
                  ->RepairQuarantinedLevels([&](int l, size_t seg) -> StatusOr<std::string> {
                    EXPECT_EQ(l, level);
                    ++fetches;
                    return good.at(seg);
                  })
                  .ok());
  EXPECT_GE(fetches, 1u);
  EXPECT_TRUE(ls.store->QuarantinedLevels().empty());
  EXPECT_GE(Metric(*ls.store, "integrity.corruptions_repaired"), 1u);
  EXPECT_GE(Metric(*ls.store, "integrity.repair_fetches"), fetches);
  EXPECT_EQ(ls.store->QuarantinedLevels().size(), 0u);
  for (const auto& [key, value] : ls.model) {
    auto got = ls.store->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, value) << key;
  }
  // Zero residual rot.
  auto post = ls.store->Scrub();
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->corruptions_found, 0u);
}

TEST(IntegrityRepairTest, RepairRejectsBytesThatFailTheExpectedCrc) {
  FaultInjector injector;
  auto ls = MakeLoadedStore("dev0", &injector);
  const int level = DeepestNonEmptyLevel(*ls.store, SmallOptions().max_levels);
  ASSERT_GE(level, 1);
  BurnFlipsIntoSegment(ls.device.get(), &injector, ls.store->level(level), 0);
  ASSERT_TRUE(ls.store->Scrub().ok());
  ASSERT_FALSE(ls.store->QuarantinedLevels().empty());

  // A peer feeding garbage must not lift the quarantine.
  Status s = ls.store->RepairQuarantinedLevels(
      [&](int, size_t) -> StatusOr<std::string> { return std::string(512, 'z'); });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(ls.store->QuarantinedLevels(), std::vector<int>{level});
}

// --- seeded corruption faults ---------------------------------------------

TEST(IntegrityFaultTest, CorruptNthDeviceReadIsSeededAndReplayable) {
  // Two identically-seeded injectors driving the same operation sequence burn
  // the exact same flips — the replay contract chaos tests rely on.
  std::vector<std::string> histories;
  for (int run = 0; run < 2; ++run) {
    FaultInjector injector(/*seed=*/1234);
    auto dev = MakeDevice("dev0");
    dev->set_fault_hook(&injector);
    auto seg = dev->AllocateSegment();
    ASSERT_TRUE(seg.ok());
    const uint64_t base = dev->geometry().BaseOffset(*seg);
    std::string data(1024, 'd');
    ASSERT_TRUE(dev->Write(base, Slice(data), IoClass::kOther).ok());
    // Aim at the next read via the device's transfer counter.
    injector.CorruptNthDeviceRead("dev0", dev->read_seq(), /*bits=*/4);
    std::string out(1024, 0);
    ASSERT_TRUE(dev->Read(base, out.size(), out.data(), IoClass::kOther).ok());
    EXPECT_NE(out, data) << "the read that burned the flips must observe them";
    EXPECT_EQ(injector.stats().corruptions, 4u);
    ASSERT_EQ(injector.history().size(), 1u);
    histories.push_back(injector.history()[0].detail);
  }
  EXPECT_EQ(histories[0], histories[1]);
}

// --- manifest compatibility ------------------------------------------------

// Re-stamps an encoded manifest with `version` and a matching CRC, so the
// version is the only thing wrong with it.
std::string WithManifestVersion(std::string encoded, uint32_t version) {
  memcpy(encoded.data() + 4, &version, sizeof(version));  // after the magic
  const size_t body_size = encoded.size() - 4;
  const uint32_t crc = Crc32c(encoded.data(), body_size);
  memcpy(encoded.data() + body_size, &crc, sizeof(crc));
  return encoded;
}

TEST(IntegrityManifestTest, PreTagManifestIsRejected) {
  Manifest m;
  m.levels.resize(3);
  m.levels[1].root_offset = 0x40;
  m.levels[1].height = 2;
  m.levels[1].num_entries = 100;
  m.levels[1].segments = {7, 8};
  m.levels[1].seg_checksums = {{0xdead, 512}, {0xbeef, 1024}};
  m.log_flushed_segments = {3, 4, 5};
  m.l0_replay_from = 1;

  // The current version round-trips the per-segment checksums.
  const std::string encoded = m.Encode();
  auto current = Manifest::Decode(encoded);
  ASSERT_TRUE(current.ok());
  ASSERT_EQ(current->levels[1].seg_checksums.size(), 2u);
  EXPECT_EQ(current->levels[1].seg_checksums[0].crc, 0xdeadu);
  EXPECT_EQ(current->levels[1].seg_checksums[1].length, 1024u);

  // Bit flips anywhere in a current image are caught by the manifest's CRC.
  Random rng(99);
  for (int i = 0; i < 64; ++i) {
    std::string mangled = encoded;
    mangled[rng.Uniform(mangled.size())] ^= static_cast<char>(1u << rng.Uniform(8));
    auto decoded = Manifest::Decode(mangled);
    if (mangled != encoded) {
      EXPECT_FALSE(decoded.ok()) << "flip " << i << " accepted";
    }
  }

  // A store whose checkpoint carries a v4 manifest (leaves without key tags),
  // a v5 one (leaves with a 12-byte prefix and unpacked offsets) or a v6 one
  // (a level CRC word before each filter) does not open: it is refused, not
  // misread.
  auto ls = MakeLoadedStore("dev0");
  ASSERT_TRUE(ls.store->value_log()->FlushTail().ok());
  auto checkpoint = ls.store->Checkpoint();
  ASSERT_TRUE(checkpoint.ok());
  const uint64_t base = ls.device->geometry().BaseOffset(*checkpoint);
  uint32_t length = 0;
  ASSERT_TRUE(ls.device->Read(base, sizeof(length), reinterpret_cast<char*>(&length),
                                IoClass::kOther).ok());
  std::string image(length, 0);
  ASSERT_TRUE(ls.device->Read(base + 4, length, image.data(), IoClass::kOther).ok());
  for (uint32_t old_version : {4u, 5u, 6u}) {
    SCOPED_TRACE(old_version);
    ASSERT_TRUE(ls.device
                    ->Write(base + 4, Slice(WithManifestVersion(image, old_version)),
                            IoClass::kOther)
                    .ok());
    auto cloned = ls.device->CloneContents();
    ASSERT_TRUE(cloned.ok());
    auto recovered = KvStore::Recover(cloned->get(), SmallOptions(), *checkpoint);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument)
        << recovered.status().ToString();
  }
}

// --- crash during repair ---------------------------------------------------

TEST(IntegrityCrashTest, CrashDuringRepairRecoversIdempotently) {
  // Extends the PR 1 crash-point matrix: the machine dies on the repair's
  // first segment rewrite. The snapshot still has the rotten level on flash;
  // recovery must detect it (segment checksum mismatch) and come back serving every
  // checkpointed record — and the live store's finished repair must be clean.
  FaultInjector injector;
  auto ls = MakeLoadedStore("dev0", &injector);
  ASSERT_TRUE(ls.store->value_log()->FlushTail().ok());
  auto checkpoint = ls.store->Checkpoint();
  ASSERT_TRUE(checkpoint.ok());
  const int level = DeepestNonEmptyLevel(*ls.store, SmallOptions().max_levels);
  ASSERT_GE(level, 1);
  const BuiltTree& tree = ls.store->level(level);

  std::map<size_t, std::string> good;
  for (size_t i = 0; i < tree.segments.size(); ++i) {
    auto bytes = ls.store->ReadLevelSegmentVerified(level, i);
    ASSERT_TRUE(bytes.ok());
    good[i] = std::move(*bytes);
  }
  BurnFlipsIntoSegment(ls.device.get(), &injector, tree, 0);
  ASSERT_TRUE(ls.store->Scrub().ok());
  ASSERT_EQ(ls.store->QuarantinedLevels(), std::vector<int>{level});

  // Crash at the repair's next device write (the segment rewrite).
  const uint64_t next_write = injector.stats().seen[static_cast<int>(FaultSite::kDeviceWrite)];
  injector.ArmCrashSnapshot("dev0", next_write);
  ASSERT_TRUE(ls.store
                  ->RepairQuarantinedLevels(
                      [&](int, size_t seg) -> StatusOr<std::string> { return good.at(seg); })
                  .ok());
  std::unique_ptr<BlockDevice> snapshot = ls.device->TakeCrashSnapshot();
  ASSERT_NE(snapshot, nullptr);

  // The live store completed the repair: clean scrub, all data served.
  EXPECT_TRUE(ls.store->QuarantinedLevels().empty());
  auto post = ls.store->Scrub();
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->corruptions_found, 0u);

  // The crashed image recovers: the segment checksum mismatch is detected and the
  // level rebuilt from the value log, so recovery is repair-idempotent.
  auto recovered = KvStore::Recover(snapshot.get(), SmallOptions(), *checkpoint);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  for (const auto& [key, value] : ls.model) {
    auto got = (*recovered)->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, value) << key;
  }
  EXPECT_TRUE((*recovered)->QuarantinedLevels().empty());
  auto rescrub = (*recovered)->Scrub();
  ASSERT_TRUE(rescrub.ok());
  EXPECT_EQ(rescrub->corruptions_found, 0u);
}

// --- Send-Index replication pair ------------------------------------------

struct SendIndexCluster {
  std::unique_ptr<Fabric> fabric = std::make_unique<Fabric>();
  std::unique_ptr<BlockDevice> primary_device;
  std::vector<std::unique_ptr<BlockDevice>> backup_devices;
  std::unique_ptr<PrimaryRegion> primary;
  std::vector<std::unique_ptr<SendIndexBackupRegion>> backups;
  std::vector<std::shared_ptr<RegisteredBuffer>> buffers;
};

SendIndexCluster MakeSendIndexCluster(int num_backups, KvStoreOptions opts,
                                      FaultInjector* injector = nullptr) {
  SendIndexCluster c;
  c.primary_device = MakeDevice("primary-dev");
  if (injector != nullptr) {
    c.primary_device->set_fault_hook(injector);
  }
  auto primary = PrimaryRegion::Create(c.primary_device.get(), opts, ReplicationMode::kSendIndex);
  EXPECT_TRUE(primary.ok());
  c.primary = std::move(*primary);
  for (int i = 0; i < num_backups; ++i) {
    c.backup_devices.push_back(MakeDevice("backup-dev" + std::to_string(i)));
    if (injector != nullptr) {
      c.backup_devices.back()->set_fault_hook(injector);
    }
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

std::map<std::string, std::string> LoadCluster(SendIndexCluster* cluster, int n = 3000,
                                               int key_space = 800) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < n; ++i) {
    const std::string key = Key(i % key_space);
    const std::string value = "v" + std::to_string(i);
    EXPECT_TRUE(cluster->primary->Put(key, value).ok());
    model[key] = value;
  }
  EXPECT_TRUE(cluster->primary->FlushL0().ok());
  return model;
}

TEST(IntegrityShipTest, BackupRejectsMangledShippedSegment) {
  auto cluster = MakeSendIndexCluster(1, SmallOptions());
  auto* backup = cluster.backups[0].get();
  ASSERT_TRUE(
      backup->Handle(CompactionBeginMsg{.compaction_id = 1, .src_level = 0, .dst_level = 1})
          .ok());
  // Bytes mangled in flight: the CRC of the decoded bytes does not match
  // the payload's. The backup must reject before rewriting a single pointer.
  const std::string garbage(2048, 'g');
  const std::string wire = EncodeIndexSegment(garbage, SmallOptions().node_size);
  IndexSegmentMsg segment{.compaction_id = 1,
                          .dst_level = 1,
                          .tree_level = 0,
                          .primary_segment = 7,
                          .data = Slice(wire),
                          .stream_id = 0,
                          .payload_crc = Crc32c("not the payload", 15)};
  Status s = backup->Handle(segment);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(Metric(*backup, "backup.segments_crc_rejected"), 1u);
  // Bytes that are no encoding at all fail to decode: the same rejection.
  segment.data = Slice(garbage);
  segment.payload_crc = Crc32c(garbage.data(), garbage.size());
  s = backup->Handle(segment);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(Metric(*backup, "backup.segments_crc_rejected"), 2u);
  // Nothing reached the backup's device.
  EXPECT_EQ(cluster.backup_devices[0]->stats().WriteBytes(IoClass::kIndexRewrite), 0u);
  // With a matching CRC the wire check passes; the same bytes now fail the
  // *structural* rewrite instead — a different guard, so the CRC-rejection
  // counter must not move.
  segment.data = Slice(wire);
  Status structural = backup->Handle(segment);
  EXPECT_FALSE(structural.ok());
  EXPECT_EQ(Metric(*backup, "backup.segments_crc_rejected"), 2u);
}

// The backup's level reads compare the record they read with the probe key
// too: a valid record of another key copied over a live key's record in the
// backup's log is kCorruption naming the backup device and offset, on the
// replica Get path and on DebugGet, and bumps backup.read_corruptions.
TEST(IntegrityShipTest, BackupLevelReadRejectsAnotherKeysRecord) {
  auto cluster = MakeSendIndexCluster(1, SmallOptions());
  auto model = LoadCluster(&cluster);
  auto* backup = cluster.backups[0].get();
  BlockDevice* device = cluster.backup_devices[0].get();
  const FlushedRecords flushed = ReadFlushedRecords(device, backup->value_log());
  std::map<uint64_t, const LogRecord*> by_offset;
  for (const LogRecord& rec : flushed.records) {
    by_offset[rec.offset] = &rec;
  }
  auto no_log = [](uint64_t, size_t) -> StatusOr<std::string> {
    return Status::Internal("an inline key needs no log read");
  };
  // A key whose newest version sits in a backup level, at a flushed record.
  std::string key;
  uint64_t offset = kInvalidOffset;
  for (const auto& [k, value] : model) {
    for (uint32_t i = 1; i <= SmallOptions().max_levels && offset == kInvalidOffset; ++i) {
      if (backup->level(i).empty()) {
        continue;
      }
      BTreeReader reader(device, nullptr, SmallOptions().node_size, backup->level(i),
                         IoClass::kOther);
      auto entry = reader.Find(k, KeyHash(k), no_log);
      if (!entry.ok()) {
        continue;
      }
      auto rec = by_offset.find(entry->log_offset());
      if (!entry->tombstone() && rec != by_offset.end() && rec->second->value == value) {
        key = k;
        offset = entry->log_offset();
      }
      break;  // the newest level holding k decides
    }
    if (offset != kInvalidOffset) {
      break;
    }
  }
  ASSERT_NE(offset, kInvalidOffset) << "no live level record on the backup";
  auto before = backup->DebugGet(key);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(*before, model[key]);
  ASSERT_FALSE(CopyOtherRecordOver(device, flushed, offset).empty()) << "no same-size record";

  const uint64_t corruptions = Metric(*backup, "backup.read_corruptions");
  for (int round = 0; round < 2; ++round) {
    auto got = round == 0 ? backup->Get(key, /*min_epoch=*/0, /*min_seq=*/0, nullptr)
                          : backup->DebugGet(key);
    ASSERT_TRUE(got.status().IsCorruption()) << (got.ok() ? *got : got.status().ToString());
    EXPECT_NE(got.status().ToString().find("backup-dev0"), std::string::npos)
        << got.status().ToString();
    EXPECT_NE(got.status().ToString().find(std::to_string(offset)), std::string::npos)
        << got.status().ToString();
  }
  EXPECT_EQ(Metric(*backup, "backup.read_corruptions"), corruptions + 2);
}

TEST(IntegrityShipTest, ShippedLevelsAreChecksummedOnTheBackup) {
  auto cluster = MakeSendIndexCluster(1, SmallOptions());
  LoadCluster(&cluster);
  ASSERT_GT(Metric(*cluster.primary->store(), "kv.compactions"), 0u);
  const int level =
      DeepestNonEmptyLevel(*cluster.backups[0], SmallOptions().max_levels);
  ASSERT_GE(level, 1) << "backup installed no checksummed level";
  const BuiltTree& local = cluster.backups[0]->level(level);
  const BuiltTree& primary = cluster.primary->store()->level(level);
  // Same shape, different spaces: the backup's checksums cover its *local*
  // bytes; the primary's cover primary-space bytes.
  ASSERT_EQ(local.segments.size(), primary.segments.size());
  ASSERT_EQ(local.seg_checksums.size(), local.segments.size());
}

TEST(IntegrityShipTest, BackupScrubsAndRepairsFromPrimary) {
  FaultInjector injector(ChaosSeed(7));
  auto cluster = MakeSendIndexCluster(2, SmallOptions(), &injector);
  auto model = LoadCluster(&cluster);
  auto* backup = cluster.backups[0].get();
  const int level = DeepestNonEmptyLevel(*backup, SmallOptions().max_levels);
  ASSERT_GE(level, 1);

  BurnFlipsIntoSegment(cluster.backup_devices[0].get(), &injector, backup->level(level), 0);
  auto report = backup->Scrub();
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report->corruptions_found, 1u);
  ASSERT_EQ(backup->QuarantinedLevels(), std::vector<int>{level});
  // Reads of the quarantined level fail loudly instead of serving rot.
  bool saw_corruption = false;
  for (const auto& [key, value] : model) {
    auto got = backup->DebugGet(key);
    if (!got.ok()) {
      ASSERT_TRUE(got.status().IsCorruption()) << key << ": " << got.status().ToString();
      saw_corruption = true;
      break;
    }
    ASSERT_EQ(*got, value) << key;
  }
  EXPECT_TRUE(saw_corruption);

  // Heal from the primary: the fetcher returns PRIMARY-space bytes (§3.3
  // byte-identity makes replicas interchangeable donors); the backup rewrites
  // them into local space and re-verifies against its local checksum.
  ASSERT_TRUE(backup
                  ->RepairQuarantinedLevels([&](int l, size_t seg) -> StatusOr<std::string> {
                    return cluster.primary->store()->ReadLevelSegmentVerified(l, seg);
                  })
                  .ok());
  EXPECT_TRUE(backup->QuarantinedLevels().empty());
  EXPECT_GE(Metric(*backup, "integrity.corruptions_repaired"), 1u);
  EXPECT_GE(Metric(*backup, "integrity.repair_fetches"), 1u);
  for (const auto& [key, value] : model) {
    auto got = backup->DebugGet(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, value) << key;
  }
  auto post = backup->Scrub();
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->corruptions_found, 0u);

  // Round two: heal from the *other backup* — a peer replica serves the
  // repair fetch by inverting its own rewrite back into primary space.
  BurnFlipsIntoSegment(cluster.backup_devices[0].get(), &injector, backup->level(level), 0);
  ASSERT_TRUE(backup->Scrub().ok());
  ASSERT_EQ(backup->QuarantinedLevels(), std::vector<int>{level});
  auto* donor = cluster.backups[1].get();
  ASSERT_TRUE(backup
                  ->RepairQuarantinedLevels([&](int l, size_t seg) -> StatusOr<std::string> {
                    return donor->ServeRepairFetch(l, seg);
                  })
                  .ok());
  EXPECT_TRUE(backup->QuarantinedLevels().empty());
  EXPECT_GE(Metric(*donor, "integrity.repair_serves"), 1u);
  for (const auto& [key, value] : model) {
    auto got = backup->DebugGet(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;
  }
}

// A quarantined backup level is data this node cannot serve, exactly like a
// quarantined primary level: the backup publishes integrity.quarantined_levels
// under its own labels, so its health watchdog turns red, and repair clears
// both.
TEST(IntegrityShipTest, QuarantinedBackupLevelTurnsItsWatchdogRed) {
  FaultInjector injector(ChaosSeed(13));
  auto cluster = MakeSendIndexCluster(1, SmallOptions(), &injector);
  LoadCluster(&cluster);
  auto* backup = cluster.backups[0].get();
  Telemetry* plane = backup->telemetry();
  plane->EnableHealthWatchdog();
  auto gauge_and_color = [&](int64_t* gauge, int64_t* color) {
    MetricsSnapshot snap = plane->Snapshot();
    const MetricSample* quarantined = snap.Find("integrity.quarantined_levels");
    ASSERT_NE(quarantined, nullptr) << "the backup publishes no quarantine gauge";
    *gauge = quarantined->value;
    *color = snap.Find("health.integrity")->value;
  };
  int64_t gauge = -1;
  int64_t color = -1;
  ASSERT_NO_FATAL_FAILURE(gauge_and_color(&gauge, &color));
  EXPECT_EQ(gauge, 0);
  EXPECT_EQ(color, kHealthGreen);

  const int level = DeepestNonEmptyLevel(*backup, SmallOptions().max_levels);
  ASSERT_GE(level, 1);
  BurnFlipsIntoSegment(cluster.backup_devices[0].get(), &injector, backup->level(level), 0);
  ASSERT_TRUE(backup->Scrub().ok());
  ASSERT_EQ(backup->QuarantinedLevels(), std::vector<int>{level});
  ASSERT_NO_FATAL_FAILURE(gauge_and_color(&gauge, &color));
  EXPECT_EQ(gauge, 1);
  EXPECT_EQ(color, kHealthRed);

  ASSERT_TRUE(backup
                  ->RepairQuarantinedLevels([&](int l, size_t seg) -> StatusOr<std::string> {
                    return cluster.primary->store()->ReadLevelSegmentVerified(l, seg);
                  })
                  .ok());
  ASSERT_TRUE(backup->QuarantinedLevels().empty());
  ASSERT_NO_FATAL_FAILURE(gauge_and_color(&gauge, &color));
  EXPECT_EQ(gauge, 0);
  EXPECT_EQ(color, kHealthGreen);
}

// A replica read never answers below its fence: when the newest version of a
// key sits in the backup's flushed-but-unindexed log suffix and that record
// rots, Get and Scan fail with kCorruption (counted in
// backup.read_corruptions; the client retries on the primary) instead of
// falling through to the older version in a shipped level. Promotion refuses
// the same bytes.
TEST(IntegrityShipTest, UnindexedSuffixRotIsCorruptionNotAnOlderVersion) {
  FaultInjector injector(ChaosSeed(5));
  auto cluster = MakeSendIndexCluster(1, SmallOptions(), &injector);
  auto* backup = cluster.backups[0].get();
  BlockDevice* device = cluster.backup_devices[0].get();
  const std::string key = Key(1);
  ASSERT_TRUE(cluster.primary->Put(key, "old").ok());
  ASSERT_TRUE(cluster.primary->FlushL0().ok());
  auto indexed = backup->DebugGet(key);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  ASSERT_EQ(*indexed, "old");

  // The new version, then filler until the tail flushes — far below the L0
  // limit, so nothing seals and the flushed segment stays unindexed.
  ASSERT_TRUE(cluster.primary->Put(key, "new").ok());
  const size_t flushed_before = backup->value_log()->flushed_segments().size();
  for (int i = 0; backup->value_log()->flushed_segments().size() == flushed_before; ++i) {
    ASSERT_LT(i, 100);
    ASSERT_TRUE(cluster.primary->Put(Key(1000 + i), std::string(4000, 'f')).ok());
  }
  ASSERT_LT(backup->replay_from(), backup->value_log()->flushed_segments().size());
  auto fresh = backup->Get(key, /*min_epoch=*/0, /*min_seq=*/0, nullptr);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_EQ(*fresh, "new");

  uint64_t offset = kInvalidOffset;
  for (const LogRecord& rec : ReadFlushedRecords(device, backup->value_log()).records) {
    if (rec.key == key && rec.value == "new") {
      offset = rec.offset;
    }
  }
  ASSERT_NE(offset, kInvalidOffset);
  // One flipped bit in the value: the record's CRC fails.
  injector.FlipBitsInRange(device->name(), offset + kLogRecordHeaderSize + key.size(), 3,
                           /*bits=*/1);
  char probe = 0;
  ASSERT_TRUE(device->Read(offset, 1, &probe, IoClass::kOther).ok());

  const uint64_t corruptions = Metric(*backup, "backup.read_corruptions");
  auto got = backup->Get(key, /*min_epoch=*/0, /*min_seq=*/0, nullptr);
  EXPECT_TRUE(got.status().IsCorruption()) << (got.ok() ? "read " + *got : got.status().ToString());
  auto scanned = backup->Scan(key, 10, /*min_epoch=*/0, /*min_seq=*/0, nullptr);
  EXPECT_TRUE(scanned.status().IsCorruption())
      << (scanned.ok() ? std::to_string(scanned->size()) + " pairs, first " +
                             (scanned->empty() ? "" : (*scanned)[0].value)
                       : scanned.status().ToString());
  EXPECT_EQ(Metric(*backup, "backup.read_corruptions"), corruptions + 2);
}

TEST(IntegrityShipTest, PrimaryRepairsFromBackupReplica) {
  FaultInjector injector(ChaosSeed(11));
  auto cluster = MakeSendIndexCluster(1, SmallOptions(), &injector);
  auto model = LoadCluster(&cluster);
  KvStore* store = cluster.primary->store();
  const int level = DeepestNonEmptyLevel(*store, SmallOptions().max_levels);
  ASSERT_GE(level, 1);

  BurnFlipsIntoSegment(cluster.primary_device.get(), &injector, store->level(level), 0);
  auto report = store->Scrub();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->quarantined_levels, std::vector<int>{level});

  // The backup re-derives primary-space bytes by inverting its rewrite; the
  // primary installs them verbatim after checking the expected CRC.
  ASSERT_TRUE(store
                  ->RepairQuarantinedLevels([&](int l, size_t seg) -> StatusOr<std::string> {
                    return cluster.backups[0]->ServeRepairFetch(l, seg);
                  })
                  .ok());
  EXPECT_TRUE(store->QuarantinedLevels().empty());
  EXPECT_GE(Metric(*cluster.backups[0], "integrity.repair_serves"), 1u);
  for (const auto& [key, value] : model) {
    auto got = cluster.primary->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, value) << key;
  }
  auto post = store->Scrub();
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->corruptions_found, 0u);
}

// --- cluster wire protocol -------------------------------------------------

struct WireCluster {
  Fabric fabric;
  Coordinator zk;
  std::vector<std::string> names;
  std::vector<std::unique_ptr<RegionServer>> servers;
  std::map<std::string, RegionServer*> directory;
  std::unique_ptr<Master> master;
  RegionMap map;

  explicit WireCluster(FaultInjector* injector = nullptr, int replication_factor = 3) {
    RegionServerOptions options;
    options.device_options.segment_size = kSegmentSize;
    options.device_options.max_segments = 1 << 16;
    options.kv_options.l0_max_entries = 256;
    options.replication_mode = ReplicationMode::kSendIndex;
    for (int i = 0; i < 3; ++i) {
      names.push_back("server" + std::to_string(i));
      options.device_options.name = names.back() + "-dev";
      servers.push_back(std::make_unique<RegionServer>(&fabric, &zk, names.back(), options));
      EXPECT_TRUE(servers.back()->Start().ok());
      if (injector != nullptr) {
        servers.back()->device()->set_fault_hook(injector);
      }
      directory[names.back()] = servers.back().get();
    }
    master = std::make_unique<Master>(&zk, "m0", directory);
    EXPECT_TRUE(master->Campaign().ok());
    auto created = RegionMap::CreateUniform(2, "user", 10, 4000, names, replication_factor);
    EXPECT_TRUE(created.ok());
    map = *created;
    EXPECT_TRUE(master->Bootstrap(map).ok());
  }

  ~WireCluster() {
    for (auto& server : servers) {
      server->Stop();
    }
  }

  std::unique_ptr<TebisClient> MakeClient(const std::string& name) {
    auto client = std::make_unique<TebisClient>(
        &fabric, name,
        [this](const std::string& server) -> ServerEndpoint* {
          auto it = directory.find(server);
          return it == directory.end() ? nullptr : it->second->client_endpoint();
        },
        names);
    EXPECT_TRUE(client->Connect().ok());
    return client;
  }

  RegionServer* Server(const std::string& name) { return directory.at(name); }
};

// Quarantines one level of `server`'s replica of `region_id` by burning a
// flip into the first index-segment read of a value-log-free scrub.
void QuarantineViaScrub(WireCluster* cluster, FaultInjector* injector, RegionServer* server,
                        uint32_t region_id) {
  KvStore::ScrubOptions index_only;
  index_only.include_value_log = false;
  // The scrub's own first read both burns and observes the flip (the device
  // applies image flips before copying out), so one pass detects it.
  injector->CorruptNthDeviceRead(server->device()->name(), server->device()->read_seq(),
                                 /*bits=*/3);
  auto report = server->ScrubRegion(region_id, index_only);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GE(report->corruptions_found, 1u) << "scrub read no index segments";
  auto quarantined = server->QuarantinedLevels(region_id);
  ASSERT_TRUE(quarantined.ok());
  ASSERT_FALSE(quarantined->empty());
}

TEST(IntegrityWireTest, RepairRegionHealsQuarantinedBackupOverTheWire) {
  FaultInjector injector(ChaosSeed(13));
  WireCluster cluster(&injector);
  auto client = cluster.MakeClient("loader");
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "user%010d", i % 1500);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(client->Put(key, value).ok());
    model[key] = value;
  }

  // Pick a region whose backup has published index levels to corrupt.
  const RegionInfo* victim_region = nullptr;
  RegionServer* victim = nullptr;
  KvStore::ScrubOptions index_only;
  index_only.include_value_log = false;
  for (const RegionInfo& region : cluster.map.regions()) {
    for (const std::string& backup : region.backups) {
      auto report = cluster.Server(backup)->ScrubRegion(region.region_id, index_only);
      if (report.ok() && report->bytes_scrubbed > 0) {
        victim_region = &region;
        victim = cluster.Server(backup);
        break;
      }
    }
    if (victim != nullptr) {
      break;
    }
  }
  ASSERT_NE(victim, nullptr) << "no backup has index levels — load more data";

  QuarantineViaScrub(&cluster, &injector, victim, victim_region->region_id);

  // Online repair over kRepairFetch/kRepairSegment from the region's primary.
  RegionServer* donor = cluster.Server(victim_region->primary);
  ASSERT_TRUE(victim->RepairRegion(victim_region->region_id, donor).ok());
  auto healed = victim->QuarantinedLevels(victim_region->region_id);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed->empty());
  EXPECT_GT(victim->telemetry()->Snapshot().Sum("integrity.repair_fetches"), 0u);

  // Zero residual rot on the healed replica; every key still reads clean.
  auto post = victim->ScrubRegion(victim_region->region_id, index_only);
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->corruptions_found, 0u);
  for (const auto& [key, value] : model) {
    auto got = client->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, value) << key;
  }
}

TEST(IntegrityWireTest, RepairFetchIsEpochFenced) {
  WireCluster cluster;
  auto client = cluster.MakeClient("loader");
  for (int i = 0; i < 2000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "user%010d", i);
    ASSERT_TRUE(client->Put(key, "v").ok());
  }
  const RegionInfo& region = cluster.map.regions().front();
  RegionServer* primary = cluster.Server(region.primary);

  // A requester at the wrong configuration generation is refused: a stale
  // donor must never feed bytes into a newer epoch, and vice versa.
  RpcClient rpc(&cluster.fabric, "fence-probe", primary->replication_endpoint(),
                kSegmentSize * 4);
  RepairFetchMsg stale{/*epoch=*/999, /*level=*/1, /*seg_index=*/0};
  auto reply = rpc.Call(MessageType::kRepairFetch, region.region_id,
                        EncodeRepairFetch(stale), kSegmentSize * 2);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_NE(reply->header.flags & kFlagError, 0);
  EXPECT_EQ(reply->payload.rfind("FailedPrecondition", 0), 0u)
      << "fence must surface as FailedPrecondition, got: " << reply->payload;

  // The correct epoch is served (level 1 exists after this much data).
  RepairFetchMsg fresh{region.epoch, /*level=*/1, /*seg_index=*/0};
  auto good = rpc.Call(MessageType::kRepairFetch, region.region_id, EncodeRepairFetch(fresh),
                       kSegmentSize * 2);
  ASSERT_TRUE(good.ok());
  if ((good->header.flags & kFlagError) == 0) {
    RepairSegmentMsg seg{};
    ASSERT_TRUE(DecodeRepairSegment(good->payload, &seg).ok());
    EXPECT_EQ(seg.level, 1u);
    EXPECT_EQ(Crc32c(seg.data.data(), seg.data.size()), seg.crc);
  }
}

// A paced scrub runs without the region lock. A close that drops the handle
// meanwhile must leave the engine alive until the scrub is done (ASan sees
// the use-after-free otherwise).
TEST(IntegrityWireTest, CloseDuringPacedScrubKeepsEngineAlive) {
  WireCluster cluster;
  auto client = cluster.MakeClient("loader");
  // Three versions of each key of the first region: scrub charges the bytes
  // it reads, and the region must hold several segments' worth to pace.
  for (int i = 0; i < 6000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "user%010d", i % 2000);
    ASSERT_TRUE(client->Put(key, "v" + std::to_string(i)).ok());
  }
  const RegionInfo& region = cluster.map.regions().front();
  RegionServer* server = cluster.Server(region.primary);
  auto full = server->ScrubRegion(region.region_id, KvStore::ScrubOptions());
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_GT(full->bytes_scrubbed, 4 * kSegmentSize) << "too little data to pace";

  // Paced at twice the region per second: the scrub is still reading when
  // the close lands.
  KvStore::ScrubOptions paced;
  paced.bytes_per_sec = full->bytes_scrubbed * 2;
  auto scrub = std::async(std::launch::async,
                          [&] { return server->ScrubRegion(region.region_id, paced); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(scrub.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  ASSERT_TRUE(server->CloseRegion(region.region_id).ok());
  auto report = scrub.get();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->bytes_scrubbed, full->bytes_scrubbed);
  EXPECT_TRUE(server->ScrubRegion(region.region_id, paced).status().IsNotFound());
}

TEST(IntegrityClientTest, ClientRetriesCorruptReadOnReplica) {
  FaultInjector injector(ChaosSeed(17));
  WireCluster cluster(&injector);
  auto client = cluster.MakeClient("loader");
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "user%010d", i % 1500);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(client->Put(key, value).ok());
    model[key] = value;
  }

  // Quarantine a level on some region's PRIMARY. Reads of that level now
  // answer kCorruption — the client must fail over to a leased replica.
  const RegionInfo* victim_region = nullptr;
  KvStore::ScrubOptions index_only;
  index_only.include_value_log = false;
  for (const RegionInfo& region : cluster.map.regions()) {
    auto report = cluster.Server(region.primary)->ScrubRegion(region.region_id, index_only);
    if (report.ok() && report->bytes_scrubbed > 0 && !region.read_leases.empty()) {
      victim_region = &region;
      break;
    }
  }
  ASSERT_NE(victim_region, nullptr);
  QuarantineViaScrub(&cluster, &injector, cluster.Server(victim_region->primary),
                     victim_region->region_id);

  // Every read still succeeds — corrupt replies reroute, they never surface
  // as wrong bytes or client-visible errors.
  auto reader = cluster.MakeClient("reader");
  for (const auto& [key, value] : model) {
    auto got = reader->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    ASSERT_EQ(*got, value) << key;
  }
  EXPECT_GE(reader->stats().corruption_retries, 1u)
      << "no read ever touched the quarantined level";

  // Heal the primary from any backup and the rerouting stops being needed.
  RegionServer* primary = cluster.Server(victim_region->primary);
  RegionServer* donor = cluster.Server(victim_region->backups.front());
  ASSERT_TRUE(primary->RepairRegion(victim_region->region_id, donor).ok());
  auto healed = primary->QuarantinedLevels(victim_region->region_id);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed->empty());
}

// --- RF=3 seeded corruption chaos soak ------------------------------------

TEST(IntegrityChaosTest, CorruptionSoakDetectsAndHealsEveryInjectedFlip) {
  const uint64_t seed = ChaosSeed(23);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " — replay with TEBIS_CHAOS_SEED=" +
               std::to_string(seed));
  FaultInjector injector(seed);
  Random rng(seed);
  auto cluster = MakeSendIndexCluster(2, SmallOptions(), &injector);

  std::map<std::string, std::string> model;
  uint64_t version = 0;
  auto put_batch = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const std::string key = Key(rng.Uniform(600));
      const std::string value = "v" + std::to_string(++version);
      ASSERT_TRUE(cluster.primary->Put(key, value).ok());
      model[key] = value;
    }
  };
  put_batch(3000);
  ASSERT_TRUE(cluster.primary->FlushL0().ok());

  // Replica r: 0 = primary, 1..2 = backups. All three must end byte-clean.
  auto engine_level = [&](int r) {
    return r == 0
               ? DeepestNonEmptyLevel(*cluster.primary->store(), SmallOptions().max_levels)
               : DeepestNonEmptyLevel(*cluster.backups[r - 1], SmallOptions().max_levels);
  };
  auto engine_tree = [&](int r, int level) -> const BuiltTree& {
    return r == 0 ? cluster.primary->store()->level(level)
                  : cluster.backups[r - 1]->level(level);
  };
  auto engine_device = [&](int r) {
    return r == 0 ? cluster.primary_device.get() : cluster.backup_devices[r - 1].get();
  };

  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Puts keep flowing while rot appears and is healed.
    put_batch(200);
    const int victim = static_cast<int>(rng.Uniform(3));
    const int level = engine_level(victim);
    ASSERT_GE(level, 1);
    const BuiltTree& tree = engine_tree(victim, level);
    const size_t seg = rng.Uniform(tree.segments.size());
    BurnFlipsIntoSegment(engine_device(victim), &injector, tree, seg,
                         /*bits=*/1 + static_cast<int>(rng.Uniform(4)));

    if (victim == 0) {
      // Primary: the scrub detects, a seeded backup donates over ServeRepairFetch.
      auto report = cluster.primary->store()->Scrub();
      ASSERT_TRUE(report.ok());
      ASSERT_GE(report->corruptions_found, 1u);
      auto* donor = cluster.backups[rng.Uniform(2)].get();
      ASSERT_TRUE(cluster.primary->store()
                      ->RepairQuarantinedLevels(
                          [&](int l, size_t s) -> StatusOr<std::string> {
                            return donor->ServeRepairFetch(l, s);
                          })
                      .ok());
      ASSERT_TRUE(cluster.primary->store()->QuarantinedLevels().empty());
    } else {
      auto* hurt = cluster.backups[victim - 1].get();
      auto report = hurt->Scrub();
      ASSERT_TRUE(report.ok());
      ASSERT_GE(report->corruptions_found, 1u);
      // Donor by seed: the primary or the other backup — §3.3 byte-identity
      // in primary space makes them interchangeable.
      const bool from_primary = rng.Uniform(2) == 0;
      auto* other = cluster.backups[2 - victim].get();
      ASSERT_TRUE(hurt->RepairQuarantinedLevels(
                          [&](int l, size_t s) -> StatusOr<std::string> {
                            return from_primary
                                       ? cluster.primary->store()->ReadLevelSegmentVerified(l, s)
                                       : other->ServeRepairFetch(l, s);
                          })
                      .ok());
      ASSERT_TRUE(hurt->QuarantinedLevels().empty());
    }

    // Spot reads after the heal: correct bytes or nothing, never rot.
    int probes = 0;
    for (const auto& [key, value] : model) {
      if (++probes > 50) {
        break;
      }
      auto got = cluster.primary->Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      ASSERT_EQ(*got, value) << key;
    }
  }

  // Soak over: every injected flip was burned (and therefore detected above —
  // each round asserted corruptions_found >= 1 and a clean quarantine list).
  ASSERT_GT(injector.stats().corruptions, 0u);

  // Post-soak: stop injecting and require zero residual rot everywhere.
  injector.ClearRules();
  ASSERT_TRUE(cluster.primary->FlushL0().ok());
  auto primary_scrub = cluster.primary->store()->Scrub();
  ASSERT_TRUE(primary_scrub.ok());
  EXPECT_EQ(primary_scrub->corruptions_found, 0u);
  for (auto& backup : cluster.backups) {
    auto scrub = backup->Scrub();
    ASSERT_TRUE(scrub.ok());
    EXPECT_EQ(scrub->corruptions_found, 0u);
    EXPECT_TRUE(backup->QuarantinedLevels().empty());
  }
  // Full model check on every replica: no client-visible read ever returns
  // corrupt bytes, on the primary or on either backup.
  for (const auto& [key, value] : model) {
    auto got = cluster.primary->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    ASSERT_EQ(*got, value) << key;
    for (auto& backup : cluster.backups) {
      auto replica = backup->DebugGet(key);
      ASSERT_TRUE(replica.ok()) << key << ": " << replica.status().ToString();
      ASSERT_EQ(*replica, value) << key;
    }
  }
}

}  // namespace
}  // namespace tebis
