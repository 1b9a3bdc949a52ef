// On-device formats of the Kreon-style LSM engine used by Tebis.
//
// Value log record:
//   [u32 key_size][u32 value_size][u8 flags][key bytes][value bytes][u32 crc32c]
// A record never crosses a segment boundary. A sealed segment ends in a pad
// marker: a u32 kPadMarker where the next record's key_size would go. A seal
// writes only the records and the marker; the bytes past it are never
// written, so they hold zeros or a reused segment's old bytes, and every
// reader stops at the marker. Appends keep 4 bytes free after the last
// record, so the marker always fits.
//
// B+ tree nodes are fixed-size blocks (kDefaultNodeSize) packed into segments:
//   leaf node : NodeHeader + array of fixed-size LeafEntry
//   index node: NodeHeader + slot directory (u16) + variable-size cells
//               growing from the end of the node, each
//               [u16 key_len][u64 child_offset][key bytes]
// Leaf entries carry a key *prefix* (the whole key when it fits) plus the
// device offset of the full record in the value log (KV separation, paper
// §2); index cells carry full pivots.
//
// Leaf entry (24 B, 170 per 4 KiB leaf):
//   [u64 word][u16 key_tag][kPrefixSize prefix bytes]
// `word` packs the record's value-log device offset (bits 0-47), the key size
// (bits 48-55) and a tombstone flag (bit 56); bits 57-63 are zero. `prefix`
// is the key's first kPrefixSize bytes, zero padded; `key_tag` is
// KeyTag(KeyHash(key)), the top bits of the key's bloom-filter hash.
//
// A key of at most kPrefixSize (14) bytes is stored whole: its prefix bytes
// and size are the key, so merges, scans and lookups never read it from the
// value log, and the entry's flag answers a deleted key without touching the
// log either. A point lookup searches a leaf by prefix alone, then scans the
// run of entries whose prefix ties with the probe: an inline key is decided
// by its size, and a longer key is loaded from the value log only for an
// entry whose size and tag both match. So, barring tag collisions, a
// searched leaf costs at most one full-key read for a hit and none for a
// miss. A full-key read is one read of the record's header + key, sized by
// the entry's key size; a header that disagrees with it is corruption.
// Merges and scans fetch a longer key the same way: one read per entry.
//
// Offsets are 48 bits, so a device whose segment_size * max_segments exceeds
// 2^48 bytes cannot hold levels; stores and backups refuse it up front
// (CheckLeafAddressable, btree_builder.h).
//
// Wire form of a shipped index segment (index_codec.h). Send-Index ships
// each segment encoded; the backup decodes it to these exact on-device bytes
// before rewriting offsets. Varints are LEB128.
//   segment : [varint decoded size] then one node record per node_size bytes
//             (the last may be short), each [u8 tag][body]:
//   raw  (0): the node's bytes verbatim — any node not proven canonical
//   zero (1): nothing; the node is all zeros
//   leaf (2): [varint count] then per entry
//             [u8 lead][u8 key size, absent when equal to the previous
//             entry's][suffix][u16 key_tag][varint log offset]
//             `lead` holds the bytes its prefix shares with the previous
//             entry's (bits 0-3), a same-key-size flag (bit 6) and the
//             tombstone flag (bit 7); `suffix` is the rest of the stored
//             prefix, min(key size, kPrefixSize) bytes in all. Prefix
//             padding and the unused tail of the node are elided.
//   index (3): [varint height][varint count] then per cell
//             [varint key_len][varint child][key bytes]; the slot directory
//             and cell positions are rebuilt from IndexNodeBuilder's layout
//             (cells packed back to back from the node end in slot order).
// Leaf and index records encode only nodes exactly as LeafNodeBuilder and
// IndexNodeBuilder write them, and only when smaller than raw.
#ifndef TEBIS_LSM_FORMAT_H_
#define TEBIS_LSM_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/common/slice.h"

namespace tebis {

// --- value log -------------------------------------------------------------

inline constexpr uint32_t kPadMarker = 0xffffffffu;
inline constexpr uint8_t kRecordFlagTombstone = 0x1;

inline constexpr size_t kLogRecordHeaderSize = 4 + 4 + 1;
inline constexpr size_t kLogRecordTrailerSize = 4;  // crc32c

inline constexpr size_t LogRecordSize(size_t key_size, size_t value_size) {
  return kLogRecordHeaderSize + key_size + value_size + kLogRecordTrailerSize;
}

// Maximum supported key size. Pivots must fit comfortably in an index cell.
inline constexpr size_t kMaxKeySize = 250;

// --- B+ tree ---------------------------------------------------------------

inline constexpr size_t kDefaultNodeSize = 4096;
// Long enough to hold the 14-byte YCSB keys (`user%010d`) whole.
inline constexpr size_t kPrefixSize = 14;

inline constexpr uint32_t kLeafMagic = 0x4c656166;   // "Leaf"
inline constexpr uint32_t kIndexMagic = 0x49647800;  // "Idx\0"

struct NodeHeader {
  uint32_t magic;        // kLeafMagic or kIndexMagic; 0 => unused node slot
  uint16_t tree_height;  // 0 for leaves
  uint16_t reserved;
  uint32_t num_entries;
  uint32_t cell_bytes;  // index nodes: bytes used by cells at the node tail
};
static_assert(sizeof(NodeHeader) == 16);

inline constexpr int kLeafOffsetBits = 48;
inline constexpr uint64_t kLeafOffsetMask = (1ull << kLeafOffsetBits) - 1;
inline constexpr int kLeafKeySizeShift = kLeafOffsetBits;
inline constexpr uint64_t kLeafKeySizeMask = 0xff;
inline constexpr uint64_t kLeafTombstoneBit = 1ull << (kLeafKeySizeShift + 8);
static_assert(kMaxKeySize <= kLeafKeySizeMask, "key size must fit the leaf entry");

// Fixed-size leaf entry: <key_prefix, key_size, log_offset> (paper Fig. 3)
// plus a tombstone flag and a key tag.
struct LeafEntry {
  uint64_t word;             // log offset | key size | tombstone flag
  uint16_t key_tag;          // KeyTag of the key's filter hash
  char prefix[kPrefixSize];  // first bytes of the key, zero padded

  static constexpr uint64_t Pack(uint64_t log_offset, size_t key_size, bool tombstone) {
    return log_offset | (static_cast<uint64_t>(key_size) << kLeafKeySizeShift) |
           (tombstone ? kLeafTombstoneBit : 0);
  }

  // Device offset of the KV record in the value log.
  uint64_t log_offset() const { return word & kLeafOffsetMask; }
  size_t key_size() const { return (word >> kLeafKeySizeShift) & kLeafKeySizeMask; }
  bool tombstone() const { return (word & kLeafTombstoneBit) != 0; }
  // The key is stored whole in `prefix`.
  bool key_inline() const { return key_size() <= kPrefixSize; }
  Slice inline_key() const { return Slice(prefix, key_size()); }

  // Replaces the offset bits only; key size and flag are untouched.
  void set_log_offset(uint64_t log_offset) { word = (word & ~kLeafOffsetMask) | log_offset; }
};
static_assert(sizeof(LeafEntry) == 24, "170 entries per 4 KiB leaf: index bytes per key");
static_assert(offsetof(LeafEntry, key_tag) == 8);

inline constexpr size_t LeafCapacity(size_t node_size) {
  return (node_size - sizeof(NodeHeader)) / sizeof(LeafEntry);
}
static_assert(LeafCapacity(kDefaultNodeSize) == 170, "leaf fan-out sets index bytes shipped");

// The leaf tag of a key whose KeyHash (bloom_filter.h) is `key_hash`.
inline constexpr uint16_t KeyTag(uint64_t key_hash) {
  return static_cast<uint16_t>(key_hash >> 48);
}

// Fills `prefix` (`size` bytes) from `key`, zero padding.
inline void MakePrefix(Slice key, char* prefix, size_t size = kPrefixSize) {
  const size_t n = key.size() < size ? key.size() : size;
  memcpy(prefix, key.data(), n);
  if (n < size) {
    memset(prefix + n, 0, size - n);
  }
}

// --- index node cells --------------------------------------------------------

inline constexpr size_t kIndexSlotSize = sizeof(uint16_t);
inline constexpr size_t kIndexCellHeaderSize = 2 + 8;  // key_len + child offset

inline constexpr size_t IndexCellSize(size_t key_len) {
  return kIndexCellHeaderSize + key_len;
}

}  // namespace tebis

#endif  // TEBIS_LSM_FORMAT_H_
