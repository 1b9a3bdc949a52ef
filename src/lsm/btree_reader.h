// Read paths over an on-device level index: point lookup and ordered
// iteration. Lookups go through the page cache (Kreon's I/O cache); compaction
// readers pass a null cache and account traffic as kCompactionRead (direct
// I/O, paper §2).
#ifndef TEBIS_LSM_BTREE_READER_H_
#define TEBIS_LSM_BTREE_READER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/lsm/btree_builder.h"
#include "src/lsm/btree_node.h"
#include "src/lsm/page_cache.h"
#include "src/storage/block_device.h"

namespace tebis {

class SegmentVerifier;

class BTreeReader {
 public:
  // `cache` may be null (direct reads). `verifier` may be null (unchecksummed
  // tree); when set, every node read first checks its segment's CRC verdict —
  // a quarantined segment fails the read with kCorruption rather than serving
  // possibly-rotten bytes (even ones already sitting clean in the page
  // cache, so readers and the scrubber agree). The reader owns nothing: it
  // holds `tree` by reference, so the caller keeps the tree (a level handle,
  // a read snapshot, a backup's level under its state lock) alive for the
  // reader's lifetime and that of its iterators.
  BTreeReader(BlockDevice* device, PageCache* cache, size_t node_size, const BuiltTree& tree,
              IoClass io_class, SegmentVerifier* verifier = nullptr);

  // Returns the leaf entry of `key` (its value-log offset and tombstone
  // flag), or NotFound. `key_hash` is KeyHash(key); the caller computes it
  // once per lookup and also probes each level's filter with it.
  StatusOr<LeafEntry> Find(Slice key, uint64_t key_hash, const FullKeyLoader& full_key) const;

  Status ReadNode(uint64_t offset, std::string* buf) const;

 private:
  BlockDevice* const device_;
  PageCache* const cache_;
  const size_t node_size_;
  const BuiltTree& tree_;
  const IoClass io_class_;
  SegmentVerifier* const verifier_;

  friend class BTreeIterator;
};

// Forward iterator over the leaf entries of a level index. Holds a descent
// stack instead of leaf sibling pointers (nodes are immutable once built and
// siblings may live in segments that were sealed earlier).
class BTreeIterator {
 public:
  BTreeIterator(const BTreeReader* reader);

  Status SeekToFirst();
  // Positions at the first entry >= key.
  Status Seek(Slice key, const FullKeyLoader& full_key);

  bool Valid() const { return valid_; }
  const LeafEntry& entry() const { return current_entry_; }
  Status Next();

 private:
  struct Frame {
    std::string node;  // raw node bytes
    uint32_t index;    // position within the node
  };

  Status DescendToLeaf(uint64_t offset, bool leftmost, Slice seek_key,
                       const FullKeyLoader* full_key);
  Status LoadEntry();
  Status Advance();

  const BTreeReader* reader_;
  std::vector<Frame> stack_;  // index frames, root first
  Frame leaf_;
  bool valid_ = false;
  LeafEntry current_entry_{};
};

}  // namespace tebis

#endif  // TEBIS_LSM_BTREE_READER_H_
