// The newest-wins k-way merge and its two users. MergeIterator walks key
// versions from sources ordered newest first: on key ties the newest version
// wins and older ones are dropped. Compaction (MergeSources) feeds its
// winners into a fresh on-device B+ tree through BTreeBuilder, eliding
// tombstones only when compacting into the last level; the read paths
// (KvStore::Scan / ScanPrefix, the Send-Index backup's replica Scan) read
// the winners' records and skip tombstones.
#ifndef TEBIS_LSM_COMPACTION_H_
#define TEBIS_LSM_COMPACTION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/lsm/btree_builder.h"
#include "src/lsm/btree_reader.h"
#include "src/lsm/memtable.h"
#include "src/lsm/value_log.h"

namespace tebis {

// One key version flowing through a merge.
struct MergeEntry {
  std::string key;
  uint64_t log_offset = kInvalidOffset;
  bool tombstone = false;
};

// Ordered stream of key versions.
class MergeSource {
 public:
  virtual ~MergeSource() = default;
  virtual bool Valid() const = 0;
  virtual const MergeEntry& entry() const = 0;
  virtual Status Next() = 0;
};

// Streams an L0 memtable (keys already in memory).
class MemtableMergeSource : public MergeSource {
 public:
  // Starts at the first key >= `start` (whole table when `start` is empty).
  explicit MemtableMergeSource(const Memtable* table, Slice start = Slice());
  bool Valid() const override { return valid_; }
  const MergeEntry& entry() const override { return entry_; }
  Status Next() override;

 private:
  void Load();
  Memtable::Iterator it_;
  MergeEntry entry_;
  bool valid_ = false;
};

// Streams a device level: its leaves and index nodes. A key of at most
// kPrefixSize bytes, and every entry's tombstone flag, come straight from the
// leaf; a longer key is fetched from the value log in one read of the
// record's header + key, sized by the key length the leaf entry records.
// Compaction reads with a null cache as IoClass::kCompactionRead (direct
// I/O) — precisely the read traffic Send-Index removes from backups: each
// input segment is read once, whole, and CRC-checked on the very bytes the
// merge then consumes (BTreeIterator, btree_reader.h), so a flipped input
// byte fails the merge with kCorruption instead of entering the new level.
// Scans read through the page cache (when the store has one) as
// IoClass::kLookup, one node at a time.
class LevelMergeSource : public MergeSource {
 public:
  // `verifier`, when set, holds the level's shared segment verdicts: a
  // quarantined segment is refused, and a streamed segment's check records
  // its verdict there, quarantining the level on a mismatch. `cache` may be
  // null (a stream: up to (tree height + 1) segments buffered); every node
  // and key read is accounted as `io_class`.
  LevelMergeSource(BlockDevice* device, size_t node_size, const BuiltTree& tree,
                   const ValueLog* log, SegmentVerifier* verifier, PageCache* cache,
                   IoClass io_class);
  // Positions at the first key >= `start` (whole level when `start` is empty).
  Status Init(Slice start = Slice());

  bool Valid() const override { return valid_; }
  const MergeEntry& entry() const override { return entry_; }
  Status Next() override;

 private:
  Status Load();
  BTreeReader reader_;
  BTreeIterator it_;
  const ValueLog* log_;
  PageCache* const cache_;
  const IoClass io_class_;
  MergeEntry entry_;
  bool valid_ = false;
};

// Newest-wins k-way merge over `sources`, ordered newest first (the caller
// owns them and has positioned each; they must outlive the iterator). The
// iterator sits on the smallest key across all sources with that key's
// newest version; source() says which source won. Next() skips every older
// version of the key, then picks the next smallest key.
class MergeIterator {
 public:
  explicit MergeIterator(std::vector<MergeSource*> sources);

  bool Valid() const { return current_ >= 0; }
  const MergeEntry& entry() const { return sources_[current_]->entry(); }
  size_t source() const { return static_cast<size_t>(current_); }
  Status Next();

 private:
  void Pick();

  std::vector<MergeSource*> sources_;
  std::string key_;  // the key being skipped while its sources advance
  int current_ = -1;
};

// Per-stage wall-clock split of one merge pass, for the compaction pipeline
// breakdown: `merge_ns` covers picking winners and advancing sources
// (including their log/level reads); `build_ns` covers feeding the builder.
// The split is taken once per run of kMergeRunLength winners, not per entry.
struct MergeStageTiming {
  uint64_t merge_ns = 0;
  uint64_t build_ns = 0;
  // When set, the running total of wall time the builder's SegmentSink has
  // spent (index shipping, accounted by the sink itself); build stages
  // exclude it, so merge, build and ship time partition the compaction.
  const uint64_t* sink_ns = nullptr;
};

// Winners MergeSources stages before feeding them to the builder.
inline constexpr size_t kMergeRunLength = 256;

// Merges `sources` (newest first) into `builder` through a MergeIterator.
// Returns the number of entries written. Duplicate keys keep only the newest
// version; when `drop_tombstones` is set, surviving tombstones are not
// written out. When `timing` is non-null, stage times are accumulated into
// it.
StatusOr<uint64_t> MergeSources(std::vector<MergeSource*> sources, bool drop_tombstones,
                                BTreeBuilder* builder, MergeStageTiming* timing = nullptr);

}  // namespace tebis

#endif  // TEBIS_LSM_COMPACTION_H_
