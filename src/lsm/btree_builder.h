// Bottom-up, left-to-right bulk loader for on-device level indexes.
//
// The builder packs fixed-size nodes into per-tree-level segment streams and
// writes each segment to the device with one large write when it fills. A
// SegmentSink observes every completed segment image — that is exactly the
// hook the Send-Index primary uses to ship the index incrementally while the
// compaction is still running (paper §3.3).
#ifndef TEBIS_LSM_BTREE_BUILDER_H_
#define TEBIS_LSM_BTREE_BUILDER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/lsm/btree_node.h"
#include "src/storage/block_device.h"

namespace tebis {

// Integrity fingerprint of one index segment: CRC32C over the used
// prefix exactly as the builder wrote it in one large device write.
struct SegmentChecksum {
  uint32_t crc = 0;
  uint32_t length = 0;  // used prefix, whole nodes only

  bool operator==(const SegmentChecksum& other) const {
    return crc == other.crc && length == other.length;
  }
};

// A finished on-device B+ tree (one LSM level).
struct BuiltTree {
  uint64_t root_offset = kInvalidOffset;
  uint16_t height = 0;  // levels above the leaves; 0 => root is a leaf
  uint64_t num_entries = 0;
  std::vector<SegmentId> segments;
  uint64_t bytes_written = 0;
  // Serialized bloom filter block, or null for trees built without
  // filters (filter-less configurations, shipped trees whose filter message
  // never arrived). Shared immutable bytes: the tree is copied by value
  // through publication, checkpointing, shipping and promotion, and the
  // filter must travel with every copy.
  std::shared_ptr<const std::string> filter;
  // Parallel to `segments`, always as long: per-segment checksums in the
  // same device space as the offsets in `segments`. They are the level's one
  // integrity record — every read path, the scrub, recovery and the repair
  // donor check level bytes against them.
  std::vector<SegmentChecksum> seg_checksums;

  bool empty() const { return root_offset == kInvalidOffset; }
};

// Observes completed index segments as they are produced.
class SegmentSink {
 public:
  virtual ~SegmentSink() = default;

  // `bytes` is the used prefix of the segment image (whole nodes only) and
  // `crc` its CRC32C, the segment's SegmentChecksum. tree_level 0 = leaf
  // segments. Called in build order; partial segments are emitted
  // leaf-level-first when the tree finishes.
  virtual void OnSegmentComplete(int tree_level, SegmentId segment, Slice bytes,
                                 uint32_t crc) = 0;
};

// InvalidArgument unless every offset of `device` fits a leaf entry's 48
// offset bits (format.h): checked on the configuration when a store or a
// backup is created, never per entry at runtime.
Status CheckLeafAddressable(const BlockDevice* device);

class BTreeBuilder {
 public:
  // Writes through `device` accounting I/O as `io_class`. `sink` may be null.
  BTreeBuilder(BlockDevice* device, size_t node_size, IoClass io_class, SegmentSink* sink);
  ~BTreeBuilder();

  BTreeBuilder(const BTreeBuilder&) = delete;
  BTreeBuilder& operator=(const BTreeBuilder&) = delete;

  // Accumulate key/prefix fingerprints alongside the index and attach the
  // serialized filter block to the finished tree. Call before the first Add.
  void EnableFilter(uint32_t bits_per_key);

  // Adds the next entry; `tombstone` marks a deletion. Keys must arrive in
  // strictly ascending order.
  Status Add(Slice key, uint64_t log_offset, bool tombstone);

  // Completes all partial nodes and segments and returns the tree. The
  // builder must not be reused afterwards.
  StatusOr<BuiltTree> Finish();

 private:
  struct LevelState;

  Status CompleteLeafNode();
  Status CompleteIndexNode(size_t level);
  Status AddPivot(size_t level, Slice key, uint64_t child_offset);
  Status PlaceNode(size_t level, const char* node, uint64_t* offset_out);
  Status FlushStream(size_t level);
  LevelState& Level(size_t level);

  BlockDevice* const device_;
  const size_t node_size_;
  const IoClass io_class_;
  SegmentSink* const sink_;

  std::vector<std::unique_ptr<LevelState>> levels_;
  std::unique_ptr<class BloomFilterBuilder> filter_builder_;
  std::string last_key_;  // for ascending-order enforcement
  uint64_t num_entries_ = 0;
  uint64_t bytes_written_ = 0;
  std::vector<SegmentId> segments_;
  std::map<SegmentId, SegmentChecksum> seg_crcs_;  // filled at FlushStream
  bool finished_ = false;
};

}  // namespace tebis

#endif  // TEBIS_LSM_BTREE_BUILDER_H_
