// Leveled compaction: k-way merge of a newer source into an older level,
// producing a fresh on-device B+ tree through BTreeBuilder. Sources are
// ordered newest-first; on key ties the newest version wins and older ones
// are dropped. Tombstones are elided only when compacting into the last
// level.
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
// I/O) — precisely the read traffic Send-Index removes from backups; scans
// read through the page cache (when the store has one) as IoClass::kLookup.
class LevelMergeSource : public MergeSource {
 public:
  // `verifier`, when set, checks every node's segment CRC before the node is
  // trusted, so scans and compaction reads refuse quarantined segments.
  // `cache` may be null (direct reads); every node and key read is accounted
  // as `io_class`.
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

// Per-stage wall-clock split of one merge pass, for the compaction pipeline
// breakdown: `merge_ns` covers picking winners and advancing sources
// (including their log/level reads); `build_ns` covers feeding the builder.
struct MergeStageTiming {
  uint64_t merge_ns = 0;
  uint64_t build_ns = 0;
};

// Merges `sources` (newest first) into `builder`. Returns the number of
// entries written. Duplicate keys keep only the newest version; when
// `drop_tombstones` is set, surviving tombstones are not written out. When
// `timing` is non-null, stage times are accumulated into it.
StatusOr<uint64_t> MergeSources(std::vector<MergeSource*> sources, bool drop_tombstones,
                                BTreeBuilder* builder, MergeStageTiming* timing = nullptr);

}  // namespace tebis

#endif  // TEBIS_LSM_COMPACTION_H_
