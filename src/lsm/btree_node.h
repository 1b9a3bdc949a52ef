// Views and builders over raw fixed-size B+ tree node buffers. These are the
// only pieces of code that know the byte layout, so the backup-side rewrite
// (TranslateNodes) reuses them to patch device offsets in place.
#ifndef TEBIS_LSM_BTREE_NODE_H_
#define TEBIS_LSM_BTREE_NODE_H_

#include <cstring>
#include <functional>
#include <string>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/lsm/format.h"

namespace tebis {

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

// Rewrites every leaf entry's log offset via `translate` (backup §3.3), a
// callable uint64_t -> StatusOr<uint64_t> taken as a template parameter so
// the per-entry call inlines. Only the offset bits change: key size,
// tombstone flag, tag and prefix stay byte-identical.
template <typename Translate>
Status RewriteLeafOffsets(char* data, size_t node_size, Translate&& translate) {
  LeafNodeView view(data, node_size);
  if (!view.IsValid()) {
    return Status::Corruption("not a leaf node");
  }
  auto* entries = reinterpret_cast<LeafEntry*>(data + sizeof(NodeHeader));
  const uint32_t n = view.num_entries();
  for (uint32_t i = 0; i < n; ++i) {
    TEBIS_ASSIGN_OR_RETURN(uint64_t translated, translate(entries[i].log_offset()));
    if (translated > kLeafOffsetMask) {
      return Status::InvalidArgument("translated offset " + std::to_string(translated) +
                                     " exceeds the leaf entry's 48 bits");
    }
    entries[i].set_log_offset(translated);
  }
  return Status::Ok();
}

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

// Rewrites every child pointer via `translate` (backup §3.3), a callable
// like RewriteLeafOffsets'.
template <typename Translate>
Status RewriteIndexChildren(char* data, size_t node_size, Translate&& translate) {
  IndexNodeView view(data, node_size);
  if (!view.IsValid()) {
    return Status::Corruption("not an index node");
  }
  const auto* slots = reinterpret_cast<const uint16_t*>(data + sizeof(NodeHeader));
  const uint32_t n = view.num_entries();
  for (uint32_t i = 0; i < n; ++i) {
    char* c = data + slots[i];
    uint64_t child;
    memcpy(&child, c + sizeof(uint16_t), sizeof(child));
    TEBIS_ASSIGN_OR_RETURN(uint64_t translated, translate(child));
    memcpy(c + sizeof(uint16_t), &translated, sizeof(translated));
  }
  return Status::Ok();
}

// Walks the nodes of one index segment image in place, applying
// `leaf_translate` to leaf entries' value-log offsets and `index_translate`
// to index children: the one rewrite core, shared by the Send-Index backup's
// shipping rewrite and its repair paths' forward/reverse rewrites. A zeroed
// node ends the walk (the zeroed tail of a partially used segment).
template <typename LeafTranslate, typename IndexTranslate>
Status TranslateNodes(char* bytes, size_t size, size_t node_size, LeafTranslate&& leaf_translate,
                      IndexTranslate&& index_translate) {
  if (size % node_size != 0) {
    return Status::InvalidArgument("index segment is not node aligned");
  }
  for (size_t off = 0; off < size; off += node_size) {
    char* node = bytes + off;
    NodeHeader header;
    memcpy(&header, node, sizeof(header));
    if (header.magic == kLeafMagic) {
      TEBIS_RETURN_IF_ERROR(RewriteLeafOffsets(node, node_size, leaf_translate));
    } else if (header.magic == kIndexMagic) {
      TEBIS_RETURN_IF_ERROR(RewriteIndexChildren(node, node_size, index_translate));
    } else if (header.magic == 0) {
      break;
    } else {
      return Status::Corruption("unknown node magic in shipped segment");
    }
  }
  return Status::Ok();
}

}  // namespace tebis

#endif  // TEBIS_LSM_BTREE_NODE_H_
