// Read paths over an on-device level index: point lookup and ordered
// iteration. Lookups read one 4 KiB node at a time through the page cache
// (Kreon's I/O cache), and so does an iterator over a cache. An iterator
// with a null cache streams instead: it reads each segment it touches once,
// whole — through the level's verifier, its checksummed prefix, checked
// against the segment's CRC (ReadAndMatch, segment_verifier.h) — and serves
// that segment's nodes as views into the buffer. The builder lays each tree height out in
// its own run of segments, left to right, so a forward walk touches every
// segment of a height once and keeps one buffer per height: at most
// (height + 1) segments in memory. Compaction streams its inputs this way
// as IoClass::kCompactionRead (direct I/O in large units, paper §2): each
// input segment costs one device read, and the bytes the merge uses are the
// bytes whose CRC was checked.
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
  // `cache` may be null (direct reads). `verifier` may be null (an unverified
  // read, as CheckIntegrity makes on purpose); when set, every node read
  // first checks its segment's CRC verdict — a quarantined segment fails the
  // read with kCorruption rather than serving possibly-rotten bytes (even
  // ones already sitting clean in the page cache, so readers and the
  // scrubber agree) — and a streamed segment records the verdict of its own
  // check there. The reader owns nothing: it holds `tree` by reference, so
  // the caller keeps the tree (a level handle, a read snapshot, a backup's
  // level under its state lock) alive for the reader's lifetime and that of
  // its iterators.
  BTreeReader(BlockDevice* device, PageCache* cache, size_t node_size, const BuiltTree& tree,
              IoClass io_class, SegmentVerifier* verifier = nullptr);

  // Returns the leaf entry of `key` (its value-log offset and tombstone
  // flag), or NotFound. `key_hash` is KeyHash(key); the caller computes it
  // once per lookup and also probes each level's filter with it.
  StatusOr<LeafEntry> Find(Slice key, uint64_t key_hash, const FullKeyLoader& full_key) const;

 private:
  // One node at `offset`, through the cache when there is one.
  Status ReadNode(uint64_t offset, std::string* buf) const;

  // The bytes a stream reads of `segment` in one device read: through the
  // verifier, its checksummed prefix with the verdict recorded; without one
  // (an unverified reader), the whole segment.
  Status ReadSegment(SegmentId segment, std::string* out) const;

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
  // Frames view the iterator's own buffers, so a copy would alias them.
  BTreeIterator(const BTreeIterator&) = delete;
  BTreeIterator& operator=(const BTreeIterator&) = delete;

  Status SeekToFirst();
  // Positions at the first entry >= key.
  Status Seek(Slice key, const FullKeyLoader& full_key);

  bool Valid() const { return valid_; }
  const LeafEntry& entry() const { return current_entry_; }
  Status Next();

 private:
  struct Frame {
    const char* node;  // view into the buffer of the node's height
    uint32_t index;    // position within the node
  };
  // The bytes the current node of one tree height lives in: that node
  // alone when reading through the cache, or the checksummed prefix of its
  // segment when streaming.
  struct HeightBuffer {
    std::string bytes;
    SegmentId segment = kInvalidSegment;  // streamed segment held in `bytes`
  };

  // The node at `offset` on tree height `height` (0 = leaves), valid until
  // the next node of that height is loaded.
  StatusOr<const char*> LoadNode(uint16_t height, uint64_t offset);
  Status DescendToLeaf(uint64_t offset, bool leftmost, Slice seek_key,
                       const FullKeyLoader* full_key);
  Status LoadEntry();
  Status Advance();

  const BTreeReader* reader_;
  std::vector<HeightBuffer> buffers_;  // indexed by tree height
  std::vector<Frame> stack_;           // index frames, root first
  Frame leaf_{};
  bool valid_ = false;
  LeafEntry current_entry_{};
};

}  // namespace tebis

#endif  // TEBIS_LSM_BTREE_READER_H_
