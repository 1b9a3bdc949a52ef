// Views and builders over raw fixed-size B+ tree node buffers. These are the
// only pieces of code that know the byte layout, so the backup-side rewrite
// (replication/index_rewriter) reuses them to patch device offsets in place.
#ifndef TEBIS_LSM_BTREE_NODE_H_
#define TEBIS_LSM_BTREE_NODE_H_

#include <functional>
#include <string>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/lsm/format.h"

namespace tebis {

// Translates one device offset; used for backup rewriting.
using OffsetTranslator = std::function<StatusOr<uint64_t>(uint64_t)>;

// Loads the full key stored at a value-log offset (needed when a leaf prefix
// ties with the probe key). `key_size` is the size the leaf entry records, so
// the loader reads header + key in one I/O.
using FullKeyLoader = std::function<StatusOr<std::string>(uint64_t log_offset, size_t key_size)>;

// --- leaf nodes ---------------------------------------------------------------

// Read-only view of a leaf node buffer.
class LeafNodeView {
 public:
  LeafNodeView(const char* data, size_t node_size) : data_(data), node_size_(node_size) {}

  bool IsValid() const { return header().magic == kLeafMagic; }
  const NodeHeader& header() const { return *reinterpret_cast<const NodeHeader*>(data_); }
  uint32_t num_entries() const { return header().num_entries; }

  const LeafEntry& entry(uint32_t i) const {
    return reinterpret_cast<const LeafEntry*>(data_ + sizeof(NodeHeader))[i];
  }

  // Finds the entry for `key`, whose KeyHash is `key_hash`. A prefix-only
  // binary search finds the run of entries whose prefix ties with the probe,
  // and the run is scanned: `full_key` loads a stored key from the value log
  // only for an entry whose size and tag match (format.h). On success returns
  // the entry index; NotFound when absent.
  StatusOr<uint32_t> Find(Slice key, uint64_t key_hash, const FullKeyLoader& full_key) const;

  // Index of the first entry whose key is >= `key` (num_entries() if none):
  // a prefix-only binary search, then a full-key one inside the tied run.
  StatusOr<uint32_t> LowerBound(Slice key, const FullKeyLoader& full_key) const;

 private:
  // First entry at or after `from` whose prefix is >= `probe` (or > `probe`
  // when `upper`); `probe` is a padded kPrefixSize prefix.
  uint32_t PrefixBound(const char* probe, uint32_t from, bool upper) const;

  // <0 / 0 / >0: entry `e` vs `key`, given that their prefixes tie. Sizes
  // decide when either key fits kPrefixSize; otherwise calls full_key.
  static StatusOr<int> CompareTied(const LeafEntry& e, Slice key, const FullKeyLoader& full_key);

  const char* data_;
  size_t node_size_;
};

// Fills a leaf node buffer with ascending entries.
class LeafNodeBuilder {
 public:
  LeafNodeBuilder(char* data, size_t node_size);

  bool Full() const { return count_ >= capacity_; }
  uint32_t count() const { return count_; }

  // Key must be strictly greater than the previous key added. `tombstone`
  // marks a deletion; `key_hash` is KeyHash(key), the source of the entry's
  // tag.
  void Add(Slice key, uint64_t log_offset, bool tombstone, uint64_t key_hash);

  // Finalizes the header. The buffer is then a valid leaf node image.
  void Finish();
  void Reset();

 private:
  char* data_;
  size_t node_size_;
  uint32_t capacity_;
  uint32_t count_;
};

// Rewrites every leaf entry's log offset via `translate` (backup §3.3). Only
// the offset bits change: key size, tombstone flag, tag and prefix stay
// byte-identical.
Status RewriteLeafOffsets(char* data, size_t node_size, const OffsetTranslator& translate);

// --- index nodes ----------------------------------------------------------------
//
// Layout: NodeHeader | u16 slot[num_entries] (growing forward) | free space |
// cells growing backward from the node end. Cell: [u16 key_len][u64 child]
// [key bytes]. Entry i's key is the minimum key reachable through child i;
// entries are appended in ascending key order by the bulk loader.

class IndexNodeView {
 public:
  IndexNodeView(const char* data, size_t node_size) : data_(data), node_size_(node_size) {}

  bool IsValid() const { return header().magic == kIndexMagic; }
  const NodeHeader& header() const { return *reinterpret_cast<const NodeHeader*>(data_); }
  uint32_t num_entries() const { return header().num_entries; }

  Slice key(uint32_t i) const;
  uint64_t child(uint32_t i) const;

  // Child to follow for `key`: the last entry whose key <= `key`. Entries
  // cover the whole key space from entry 0, so lookups of keys smaller than
  // entry 0's key also descend into child 0.
  uint32_t FindChild(Slice key) const;

 private:
  const char* cell(uint32_t i) const;
  const char* data_;
  size_t node_size_;
};

class IndexNodeBuilder {
 public:
  IndexNodeBuilder(char* data, size_t node_size);

  // True if another entry with `key_len` bytes would not fit.
  bool WouldOverflow(size_t key_len) const;
  uint32_t count() const { return count_; }

  void Add(Slice key, uint64_t child_offset);
  void Finish(uint16_t tree_height);
  void Reset();

 private:
  char* data_;
  size_t node_size_;
  uint32_t count_;
  size_t cell_bytes_;  // bytes consumed by cells at the tail
};

// Rewrites every child pointer via `translate` (backup §3.3).
Status RewriteIndexChildren(char* data, size_t node_size, const OffsetTranslator& translate);

}  // namespace tebis

#endif  // TEBIS_LSM_BTREE_NODE_H_
