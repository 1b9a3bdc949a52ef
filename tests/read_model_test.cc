// Model-checked reads: one seed per iteration drives a primary and its
// backup — a Send-Index pair, then a Build-Index pair — through random puts
// and deletes with forced seals and compactions, and checks every read path
// of both replicas against a std::map model of the acknowledged writes.
//
// Keys come from a small space, so each key's versions spread across every
// place a read has to look and in the order it has to look there: the
// backup's RDMA buffer (acked, not flushed), a Send-Index backup's
// flushed-but-unindexed log suffix, and several levels (a newer version in
// L1 over an older one in L2 is a cross-level tie): shipped ones on a
// Send-Index backup, the backup's own on a Build-Index one. Deletes leave tombstones in levels above the
// last. Key lengths straddle the 14-byte inline limit of a leaf entry, so
// merges and tied lookups both take keys from the leaf and fetch them from
// the value log.
//
// Checked on every round: primary Get / Scan / ScanPrefix, backup Get / Scan;
// after each forced flush, when every acked write is indexed, also the
// backup's DebugGet (Send-Index: its levels only; Build-Index: its engine).
// A failure names its seed and mode; replay one seed with
// TEBIS_CHAOS_SEED=<n>.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/lsm/bloom_filter.h"
#include "src/lsm/kv_store.h"
#include "src/net/fabric.h"
#include "src/replication/build_index_backup.h"
#include "src/replication/local_backup_channel.h"
#include "src/replication/primary_region.h"
#include "src/replication/send_index_backup.h"
#include "src/storage/block_device.h"

namespace tebis {
namespace {

constexpr uint64_t kSegmentSize = 1 << 16;
constexpr int kGroups = 4;
constexpr int kKeysPerGroup = 8;
constexpr int kOpsPerSeed = 700;
constexpr uint64_t kSeeds = 6;
// Random keys point-read per check; the last check of a seed reads every key.
constexpr size_t kPointReads = 16;

// "g1/05" (5 B), "g1/05/inline-k" (14 B: the longest key a leaf holds
// whole), "g1/05/long-key-a" and "-b" (16 B: leaves hold a prefix only).
const char* const kVariants[] = {"", "/inline-k", "/long-key-a", "/long-key-b"};

std::string KeyAt(int group, int index, int variant) {
  char base[16];
  snprintf(base, sizeof(base), "g%d/%02d", group, index);
  return std::string(base) + kVariants[variant];
}

std::vector<std::string> AllKeys() {
  std::vector<std::string> keys;
  for (int g = 0; g < kGroups; ++g) {
    for (int i = 0; i < kKeysPerGroup; ++i) {
      for (int v = 0; v < 4; ++v) {
        keys.push_back(KeyAt(g, i, v));
      }
    }
  }
  return keys;
}

std::unique_ptr<BlockDevice> MakeDevice(const std::string& name) {
  BlockDeviceOptions opts;
  opts.segment_size = kSegmentSize;
  opts.max_segments = 4096;
  opts.name = name;
  auto dev = BlockDevice::Create(opts);
  EXPECT_TRUE(dev.ok());
  return std::move(*dev);
}

using Model = std::map<std::string, std::string>;

// Up to `limit` model pairs with key >= start that begin with `prefix`.
std::vector<KvPair> ModelScan(const Model& model, const std::string& start,
                              const std::string& prefix, size_t limit) {
  std::vector<KvPair> out;
  for (auto it = model.lower_bound(start); it != model.end() && out.size() < limit; ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    out.push_back(KvPair{it->first, it->second});
  }
  return out;
}

std::string Describe(const StatusOr<std::vector<KvPair>>& got) {
  if (!got.ok()) {
    return got.status().ToString();
  }
  std::string s = std::to_string(got->size()) + " pairs:";
  for (const KvPair& p : *got) {
    s += " " + p.key;
  }
  return s;
}

void ExpectPairs(const StatusOr<std::vector<KvPair>>& got, const std::vector<KvPair>& want,
                 const std::string& what) {
  ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
  ASSERT_EQ(got->size(), want.size()) << what << ": " << Describe(got);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ((*got)[i].key, want[i].key) << what << " #" << i;
    ASSERT_EQ((*got)[i].value, want[i].value) << what << " key " << want[i].key;
  }
}

void ExpectGet(const StatusOr<std::string>& got, const Model& model, const std::string& key,
               const std::string& what) {
  auto it = model.find(key);
  if (it == model.end()) {
    ASSERT_TRUE(got.status().IsNotFound())
        << what << "(" << key << ") of a deleted/absent key: "
        << (got.ok() ? "value " + got->substr(0, 24) : got.status().ToString());
  } else {
    ASSERT_TRUE(got.ok()) << what << "(" << key << "): " << got.status().ToString();
    ASSERT_EQ(*got, it->second) << what << "(" << key << ")";
  }
}

// Declared so the primary, whose channel points at the backup, goes first.
struct Pair {
  Fabric fabric;
  std::unique_ptr<BlockDevice> primary_device = MakeDevice("primary-dev");
  std::unique_ptr<BlockDevice> backup_device = MakeDevice("backup-dev");
  std::shared_ptr<RegisteredBuffer> buffer;
  std::unique_ptr<BackupRegion> backup;
  // The backup's engine, by mode; the other is null.
  SendIndexBackupRegion* send_index = nullptr;
  BuildIndexBackupRegion* build_index = nullptr;
  std::unique_ptr<PrimaryRegion> primary;
};

KvStoreOptions ModelOptions() {
  KvStoreOptions opts;
  opts.l0_max_entries = 64;
  opts.growth_factor = 2;
  opts.max_levels = 3;
  return opts;
}

std::unique_ptr<Pair> MakePair(ReplicationMode mode) {
  auto p = std::make_unique<Pair>();
  auto primary = PrimaryRegion::Create(p->primary_device.get(), ModelOptions(), mode);
  EXPECT_TRUE(primary.ok());
  p->primary = std::move(*primary);
  p->buffer = p->fabric.RegisterBuffer("backup0", "primary0", kSegmentSize);
  if (mode == ReplicationMode::kSendIndex) {
    auto backup =
        SendIndexBackupRegion::Create(p->backup_device.get(), ModelOptions(), p->buffer);
    EXPECT_TRUE(backup.ok());
    p->send_index = backup->get();
    p->backup = std::move(*backup);
  } else {
    auto backup =
        BuildIndexBackupRegion::Create(p->backup_device.get(), ModelOptions(), p->buffer);
    EXPECT_TRUE(backup.ok());
    p->build_index = backup->get();
    p->backup = std::move(*backup);
  }
  p->primary->AddBackup(std::make_unique<LocalBackupChannel>(&p->fabric, "primary0", p->buffer,
                                                             p->backup.get()));
  return p;
}

// Non-empty levels of the backup's index: shipped (Send-Index) or its own.
int BackupLevels(const Pair& p) {
  int levels = 0;
  for (uint32_t i = 1; i <= ModelOptions().max_levels; ++i) {
    const BuiltTree& tree =
        p.send_index != nullptr ? p.send_index->level(i) : p.build_index->store()->level(i);
    levels += tree.empty() ? 0 : 1;
  }
  return levels;
}

// What one seed's reads covered; summed over seeds, every field must be
// non-zero or the test did not exercise what it claims to.
struct Coverage {
  uint64_t checks_with_unindexed_suffix = 0;
  uint64_t checks_with_buffered_records = 0;
  uint64_t checks_with_two_levels = 0;
  uint64_t deleted_keys_checked = 0;
};

// Every read path of both replicas against the model: point reads of
// `point_reads` random keys (0 = every key), and random scans. `indexed` says
// every acked write is in the backup's levels, so DebugGet must agree too.
void CheckReads(Pair* p, const Model& model, const std::vector<std::string>& keys,
                std::mt19937_64* rng, bool indexed, size_t point_reads, Coverage* coverage) {
  KvStore* store = p->primary->store();
  BackupRegion* backup = p->backup.get();
  if (p->send_index != nullptr &&
      p->send_index->replay_from() < p->send_index->value_log()->flushed_segments().size()) {
    coverage->checks_with_unindexed_suffix++;
  }
  // A non-zero first record header: acked records wait in the RDMA buffer.
  bool buffered = false;
  p->buffer->ReadView([&](Slice bytes) { buffered = bytes[0] != '\0'; });
  if (buffered) {
    coverage->checks_with_buffered_records++;
  }
  if (BackupLevels(*p) >= 2) {
    coverage->checks_with_two_levels++;
  }
  const size_t reads = point_reads == 0 ? keys.size() : point_reads;
  for (size_t n = 0; n < reads; ++n) {
    const std::string& key = point_reads == 0 ? keys[n] : keys[(*rng)() % keys.size()];
    if (model.count(key) == 0) {
      coverage->deleted_keys_checked++;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectGet(store->Get(key), model, key, "primary Get"));
    ASSERT_NO_FATAL_FAILURE(ExpectGet(backup->Get(key, /*min_epoch=*/0, /*min_seq=*/0, nullptr),
                                      model, key, "backup Get"));
    if (indexed) {
      ASSERT_NO_FATAL_FAILURE(ExpectGet(backup->DebugGet(key), model, key, "backup DebugGet"));
    }
  }
  for (int round = 0; round < 3; ++round) {
    const std::string& start = keys[(*rng)() % keys.size()];
    const size_t limit = 1 + (*rng)() % (keys.size() + 4);
    const std::vector<KvPair> want = ModelScan(model, start, "", limit);
    ASSERT_NO_FATAL_FAILURE(
        ExpectPairs(store->Scan(start, limit), want, "primary Scan(" + start + ")"));
    ASSERT_NO_FATAL_FAILURE(
        ExpectPairs(backup->Scan(start, limit, /*min_epoch=*/0, /*min_seq=*/0, nullptr), want,
                    "backup Scan(" + start + ")"));
  }
  // Prefixes shorter than kFilterPrefixSize merge every level; longer ones
  // let the filter skip levels that hold no key under them.
  const int g = static_cast<int>((*rng)() % kGroups);
  const int i = static_cast<int>((*rng)() % kKeysPerGroup);
  const std::string group_prefix = KeyAt(g, i, 0).substr(0, 3);
  const std::string key_prefix = KeyAt(g, i, 0);
  const std::string long_prefix = KeyAt(g, i, 2).substr(0, KeyAt(g, i, 2).size() - 1);
  static_assert(sizeof("g0/00/long-key-") - 1 >= kFilterPrefixSize,
                "the long prefix must reach the filter's prefix domain");
  for (const std::string& prefix : {group_prefix, key_prefix, long_prefix}) {
    const size_t limit = 1 + (*rng)() % 12;
    ASSERT_NO_FATAL_FAILURE(ExpectPairs(store->ScanPrefix(prefix, limit),
                                        ModelScan(model, prefix, prefix, limit),
                                        "primary ScanPrefix(" + prefix + ")"));
  }
}

void RunSeed(ReplicationMode mode, uint64_t seed, Coverage* coverage) {
  SCOPED_TRACE(std::string(mode == ReplicationMode::kSendIndex ? "Send-Index" : "Build-Index") +
               " seed " + std::to_string(seed));
  auto p = MakePair(mode);
  std::mt19937_64 rng(seed);
  const std::vector<std::string> keys = AllKeys();
  Model model;
  for (int op = 0; op < kOpsPerSeed; ++op) {
    const std::string& key = keys[rng() % keys.size()];
    const uint64_t dice = rng() % 100;
    if (dice < 72) {
      // 200..4200 B values: a memtable's worth of records overflows a log
      // segment, so flushed-but-unindexed segments exist between seals.
      const size_t size = 200 + rng() % 4000;
      std::string value = "s" + std::to_string(seed) + "-op" + std::to_string(op) + "-";
      value.resize(size, static_cast<char>('a' + op % 26));
      ASSERT_TRUE(p->primary->Put(key, value).ok()) << op;
      model[key] = value;
    } else if (dice < 92) {
      ASSERT_TRUE(p->primary->Delete(key).ok()) << op;
      model.erase(key);
    } else if (dice < 95) {
      // Seal + L0 compaction: every acked write is now in the levels.
      ASSERT_TRUE(p->primary->FlushL0().ok()) << op;
      CheckReads(p.get(), model, keys, &rng, /*indexed=*/true, kPointReads, coverage);
    } else if (dice < 96) {
      ASSERT_TRUE(p->primary->store()->ForceFullCompaction().ok()) << op;
      // A Build-Index backup compacts on its own schedule, which this small
      // key space never pushes past L1; a full compaction of its engine too
      // spreads its versions over several levels.
      if (p->build_index != nullptr) {
        ASSERT_TRUE(p->build_index->store()->ForceFullCompaction().ok()) << op;
      }
    } else {
      CheckReads(p.get(), model, keys, &rng, /*indexed=*/false, kPointReads, coverage);
    }
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  ASSERT_TRUE(p->primary->FlushL0().ok());
  CheckReads(p.get(), model, keys, &rng, /*indexed=*/true, /*point_reads=*/0, coverage);
}

TEST(ReadModelTest, EveryReadPathMatchesTheModelAcrossSeeds) {
  uint64_t first = 1;
  uint64_t count = kSeeds;
  if (const char* env = std::getenv("TEBIS_CHAOS_SEED"); env != nullptr && *env != '\0') {
    first = std::strtoull(env, nullptr, 10);
    count = 1;
  }
  for (ReplicationMode mode : {ReplicationMode::kSendIndex, ReplicationMode::kBuildIndex}) {
    Coverage coverage;
    for (uint64_t seed = first; seed < first + count; ++seed) {
      RunSeed(mode, seed, &coverage);
      if (HasFatalFailure()) {
        return;
      }
    }
    // A Build-Index backup indexes every record as its segment flushes, so
    // it has no unindexed suffix.
    if (mode == ReplicationMode::kSendIndex) {
      EXPECT_GT(coverage.checks_with_unindexed_suffix, 0u);
    }
    EXPECT_GT(coverage.checks_with_buffered_records, 0u);
    EXPECT_GT(coverage.checks_with_two_levels, 0u);
    EXPECT_GT(coverage.deleted_keys_checked, 0u);
  }
}

}  // namespace
}  // namespace tebis
