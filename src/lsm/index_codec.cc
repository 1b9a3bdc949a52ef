#include "src/lsm/index_codec.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>

#include "src/lsm/format.h"

namespace tebis {
namespace {

// Per-node tags of the wire form (format.h).
enum NodeTag : uint8_t { kRawNode = 0, kZeroNode = 1, kLeafNode = 2, kIndexNode = 3 };

// Leaf entry lead byte: shared-prefix length in the low bits, then a flag for
// a key size equal to the previous entry's (its size byte is elided), and
// the tombstone flag on top.
constexpr uint8_t kEntryShared = 0x0f;
constexpr uint8_t kEntrySameSize = 0x40;
constexpr uint8_t kEntryTombstone = 0x80;
static_assert(kPrefixSize <= kEntryShared, "shared length must fit the lead byte");

// Word bits above the tombstone flag: set in no leaf the builder writes.
constexpr uint64_t kLeafUnusedBits = ~((kLeafTombstoneBit << 1) - 1);

constexpr size_t kMaxVarint = 10;
constexpr size_t kMaxOffsetVarint = (kLeafOffsetBits + 6) / 7;

// A leaf entry's key tag and prefix are its last 16 bytes, moved as one
// little-endian 128-bit value: the tag in the low 2 bytes, the prefix above.
// Whole-value shifts and masks replace byte copies, so no load waits on the
// narrower stores that wrote its bytes.
using Bytes16 = unsigned __int128;
constexpr size_t kTagPrefixOffset = offsetof(LeafEntry, key_tag);
static_assert(offsetof(LeafEntry, prefix) == kTagPrefixOffset + sizeof(uint16_t) &&
              kTagPrefixOffset + sizeof(Bytes16) == sizeof(LeafEntry));

Bytes16 Load16(const char* p) {
  Bytes16 v;
  memcpy(&v, p, sizeof(v));
  return v;
}

void Store16(char* p, Bytes16 v) { memcpy(p, &v, sizeof(v)); }

// The low `n` bytes set, n < 16.
Bytes16 LowBytes(size_t n) { return (Bytes16{1} << (8 * n)) - 1; }

// Index of the lowest non-zero byte of `x`, or kPrefixSize when x is zero.
size_t FirstDifference(Bytes16 x) {
  const uint64_t lo = static_cast<uint64_t>(x);
  const uint64_t hi = static_cast<uint64_t>(x >> 64);
  if (lo != 0) {
    return static_cast<size_t>(__builtin_ctzll(lo)) / 8;
  }
  return hi != 0 ? 8 + static_cast<size_t>(__builtin_ctzll(hi)) / 8 : kPrefixSize;
}

// Room one leaf entry's encoding needs (its suffix goes out as a whole
// 16-byte store), and the bound of an index cell's header.
constexpr size_t kMaxLeafEntry = 2 + sizeof(Bytes16) + sizeof(uint16_t) + kMaxOffsetVarint;
constexpr size_t kMaxCellHeader = 3 + kMaxVarint;
// Index slots are u16 node positions.
constexpr size_t kMaxTypedNodeSize = size_t{1} << 16;

bool TypedNodeSize(size_t node_size) {
  return node_size >= sizeof(NodeHeader) && node_size <= kMaxTypedNodeSize;
}

char* PutVarint(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

bool AllZero(const char* p, size_t n) {
  return n == 0 || (p[0] == 0 && memcmp(p, p + 1, n - 1) == 0);
}

// The node's typed encoding in [p, limit), or null when the node is not
// exactly what LeafNodeBuilder writes or its encoding would not fit.
char* EncodeLeaf(const char* node, size_t node_size, char* p, const char* limit) {
  NodeHeader h;
  memcpy(&h, node, sizeof(h));
  if (h.magic != kLeafMagic || h.tree_height != 0 || h.reserved != 0 || h.cell_bytes != 0 ||
      h.num_entries > LeafCapacity(node_size)) {
    return nullptr;
  }
  const size_t used = sizeof(NodeHeader) + h.num_entries * sizeof(LeafEntry);
  if (!AllZero(node + used, node_size - used)) {
    return nullptr;
  }
  if (static_cast<size_t>(limit - p) < 1 + kMaxVarint) {
    return nullptr;
  }
  *p++ = static_cast<char>(kLeafNode);
  p = PutVarint(p, h.num_entries);
  Bytes16 prev = 0;
  size_t prev_size = 0;
  const char* entries = node + sizeof(NodeHeader);
  for (uint32_t i = 0; i < h.num_entries; ++i) {
    const char* entry = entries + i * sizeof(LeafEntry);
    uint64_t word;
    memcpy(&word, entry, sizeof(word));
    const Bytes16 tag_prefix = Load16(entry + kTagPrefixOffset);
    const Bytes16 prefix = tag_prefix >> 16;
    const size_t key_size = (word >> kLeafKeySizeShift) & kLeafKeySizeMask;
    const size_t stored = std::min(key_size, kPrefixSize);
    // Canonical: no stray word bits, zeros past the stored key bytes.
    if ((word & kLeafUnusedBits) != 0 || (prefix >> (8 * stored)) != 0 ||
        static_cast<size_t>(limit - p) < kMaxLeafEntry) {
      return nullptr;
    }
    const size_t shared = std::min(FirstDifference(prefix ^ prev), stored);
    const bool same_size = key_size == prev_size;
    *p++ = static_cast<char>(shared | (same_size ? kEntrySameSize : 0) |
                             ((word & kLeafTombstoneBit) != 0 ? kEntryTombstone : 0));
    if (!same_size) {
      *p++ = static_cast<char>(key_size);
    }
    Store16(p, prefix >> (8 * shared));
    p += stored - shared;
    const uint16_t tag = static_cast<uint16_t>(tag_prefix);
    memcpy(p, &tag, sizeof(tag));
    p += sizeof(tag);
    p = PutVarint(p, word & kLeafOffsetMask);
    prev = prefix;
    prev_size = key_size;
  }
  return p;
}

// Same, for exactly what IndexNodeBuilder writes: cells packed back to back
// from the node end in slot order, zeros between the slots and the cells.
char* EncodeIndex(const char* node, size_t node_size, char* p, const char* limit) {
  NodeHeader h;
  memcpy(&h, node, sizeof(h));
  if (h.magic != kIndexMagic || h.reserved != 0 ||
      h.num_entries > (node_size - sizeof(NodeHeader)) / kIndexSlotSize) {
    return nullptr;
  }
  if (static_cast<size_t>(limit - p) < 1 + 2 * kMaxVarint) {
    return nullptr;
  }
  *p++ = static_cast<char>(kIndexNode);
  p = PutVarint(p, h.tree_height);
  p = PutVarint(p, h.num_entries);
  const size_t slots_end = sizeof(NodeHeader) + h.num_entries * kIndexSlotSize;
  size_t cell_bytes = 0;
  for (uint32_t i = 0; i < h.num_entries; ++i) {
    uint16_t slot;
    memcpy(&slot, node + sizeof(NodeHeader) + i * kIndexSlotSize, sizeof(slot));
    if (slot < slots_end || slot + kIndexCellHeaderSize > node_size - cell_bytes) {
      return nullptr;
    }
    uint16_t key_len;
    memcpy(&key_len, node + slot, sizeof(key_len));
    if (slot + IndexCellSize(key_len) != node_size - cell_bytes ||
        static_cast<size_t>(limit - p) < kMaxCellHeader + key_len) {
      return nullptr;
    }
    cell_bytes = node_size - slot;
    uint64_t child;
    memcpy(&child, node + slot + sizeof(uint16_t), sizeof(child));
    p = PutVarint(p, key_len);
    p = PutVarint(p, child);
    memcpy(p, node + slot + kIndexCellHeaderSize, key_len);
    p += key_len;
  }
  if (h.cell_bytes != cell_bytes ||
      !AllZero(node + slots_end, node_size - cell_bytes - slots_end)) {
    return nullptr;
  }
  return p;
}

// Bounds-checked reader over the encoded bytes.
class Reader {
 public:
  explicit Reader(Slice in) : p_(in.data()), end_(in.data() + in.size()) {}

  bool done() const { return p_ == end_; }

  bool Byte(uint8_t* v) {
    if (p_ == end_) {
      return false;
    }
    *v = static_cast<uint8_t>(*p_++);
    return true;
  }

  bool Varint(uint64_t* v) {
    uint64_t result = 0;
    for (int shift = 0; shift < 64 && p_ != end_; shift += 7) {
      const uint8_t byte = static_cast<uint8_t>(*p_++);
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *v = result;
        return true;
      }
    }
    return false;
  }

  bool Copy(char* dst, size_t n) {
    if (static_cast<size_t>(end_ - p_) < n) {
      return false;
    }
    memcpy(dst, p_, n);
    p_ += n;
    return true;
  }

  // The next `n` < 16 bytes in the low bytes of `out` (the rest is noise).
  bool Suffix(size_t n, Bytes16* out) {
    const size_t left = static_cast<size_t>(end_ - p_);
    if (left >= sizeof(Bytes16)) {
      *out = Load16(p_);
    } else {
      char tail[sizeof(Bytes16)] = {};
      if (left < n) {
        return false;
      }
      memcpy(tail, p_, n);
      *out = Load16(tail);
    }
    p_ += n;
    return true;
  }

 private:
  const char* p_;
  const char* end_;
};

Status Bad(const char* what) {
  return Status::Corruption(std::string("index segment encoding: ") + what);
}

Status DecodeLeaf(Reader* in, char* node, size_t node_size) {
  uint64_t count;
  if (!in->Varint(&count)) {
    return Bad("truncated leaf count");
  }
  if (count > LeafCapacity(node_size)) {
    return Bad("leaf count exceeds the node");
  }
  Bytes16 prefix = 0;  // the previous entry's, then this one's
  uint8_t key_size = 0;
  char* entries = node + sizeof(NodeHeader);
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t lead;
    if (!in->Byte(&lead) || ((lead & kEntrySameSize) == 0 && !in->Byte(&key_size))) {
      return Bad("truncated leaf entry");
    }
    const size_t shared = lead & kEntryShared;
    const size_t stored = std::min<size_t>(key_size, kPrefixSize);
    if ((lead & ~(kEntryShared | kEntrySameSize | kEntryTombstone)) != 0 || shared > stored) {
      return Bad("bad leaf entry lead byte");
    }
    Bytes16 suffix;
    uint16_t tag;
    uint64_t offset;
    if (!in->Suffix(stored - shared, &suffix) ||
        !in->Copy(reinterpret_cast<char*>(&tag), sizeof(tag)) || !in->Varint(&offset)) {
      return Bad("truncated leaf entry");
    }
    if (offset > kLeafOffsetMask) {
      return Bad("leaf offset exceeds 48 bits");
    }
    prefix = (prefix & LowBytes(shared)) | ((suffix << (8 * shared)) & LowBytes(stored));
    const uint64_t word = LeafEntry::Pack(offset, key_size, (lead & kEntryTombstone) != 0);
    char* entry = entries + i * sizeof(LeafEntry);
    memcpy(entry, &word, sizeof(word));
    Store16(entry + kTagPrefixOffset, Bytes16{tag} | (prefix << 16));
  }
  const NodeHeader h{kLeafMagic, 0, 0, static_cast<uint32_t>(count), 0};
  memcpy(node, &h, sizeof(h));
  return Status::Ok();
}

Status DecodeIndex(Reader* in, char* node, size_t node_size) {
  uint64_t height, count;
  if (!in->Varint(&height) || !in->Varint(&count)) {
    return Bad("truncated index node header");
  }
  if (height > UINT16_MAX || count > (node_size - sizeof(NodeHeader)) / kIndexSlotSize) {
    return Bad("index node header exceeds the node");
  }
  const size_t slots_end = sizeof(NodeHeader) + count * kIndexSlotSize;
  size_t cell_bytes = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t key_len, child;
    if (!in->Varint(&key_len) || !in->Varint(&child)) {
      return Bad("truncated index cell");
    }
    // The cell must fit between the slot directory and the cells before it.
    if (key_len > node_size || IndexCellSize(key_len) > node_size - slots_end - cell_bytes) {
      return Bad("index cell exceeds the node");
    }
    cell_bytes += IndexCellSize(key_len);
    const uint16_t slot = static_cast<uint16_t>(node_size - cell_bytes);
    char* cell = node + slot;
    const uint16_t len = static_cast<uint16_t>(key_len);
    memcpy(cell, &len, sizeof(len));
    memcpy(cell + sizeof(uint16_t), &child, sizeof(child));
    if (!in->Copy(cell + kIndexCellHeaderSize, key_len)) {
      return Bad("truncated index key");
    }
    memcpy(node + sizeof(NodeHeader) + i * kIndexSlotSize, &slot, sizeof(slot));
  }
  const NodeHeader h{kIndexMagic, static_cast<uint16_t>(height), 0, static_cast<uint32_t>(count),
                     static_cast<uint32_t>(cell_bytes)};
  memcpy(node, &h, sizeof(h));
  return Status::Ok();
}

}  // namespace

std::string EncodeIndexSegment(Slice segment, size_t node_size) {
  assert(node_size > 0);
  const size_t size = segment.size();
  const size_t nodes = (size + node_size - 1) / node_size;
  // Bound: every node falls back to its tag plus its raw bytes.
  std::string out(kMaxVarint + nodes + size, '\0');
  char* p = PutVarint(out.data(), size);
  const bool typed = TypedNodeSize(node_size);
  for (size_t off = 0; off < size; off += node_size) {
    const char* node = segment.data() + off;
    const size_t len = std::min(node_size, size - off);
    const char* limit = p + 1 + len;
    char* end = nullptr;
    if (AllZero(node, len)) {
      *p = static_cast<char>(kZeroNode);
      end = p + 1;
    } else if (typed && len == node_size) {
      uint32_t magic;
      memcpy(&magic, node, sizeof(magic));
      if (magic == kLeafMagic) {
        end = EncodeLeaf(node, node_size, p, limit);
      } else if (magic == kIndexMagic) {
        end = EncodeIndex(node, node_size, p, limit);
      }
    }
    if (end == nullptr) {
      *p = static_cast<char>(kRawNode);
      memcpy(p + 1, node, len);
      end = p + 1 + len;
    }
    p = end;
  }
  out.resize(p - out.data());
  return out;
}

Status DecodeIndexSegment(Slice encoded, size_t node_size, size_t max_size, std::string* out) {
  if (node_size == 0) {
    return Status::InvalidArgument("index segment decode needs a node size");
  }
  Reader in(encoded);
  uint64_t size;
  if (!in.Varint(&size)) {
    return Bad("truncated segment size");
  }
  if (size > max_size) {
    return Bad("segment size exceeds the device segment");
  }
  out->assign(size, '\0');
  const bool typed = TypedNodeSize(node_size);
  for (size_t off = 0; off < size; off += node_size) {
    char* node = out->data() + off;
    const size_t len = std::min<size_t>(node_size, size - off);
    uint8_t tag;
    if (!in.Byte(&tag)) {
      return Bad("truncated node tag");
    }
    const bool whole = typed && len == node_size;
    if (tag == kRawNode) {
      if (!in.Copy(node, len)) {
        return Bad("truncated raw node");
      }
    } else if (tag == kLeafNode && whole) {
      TEBIS_RETURN_IF_ERROR(DecodeLeaf(&in, node, node_size));
    } else if (tag == kIndexNode && whole) {
      TEBIS_RETURN_IF_ERROR(DecodeIndex(&in, node, node_size));
    } else if (tag != kZeroNode) {
      return Bad("unknown node tag");
    }
  }
  if (!in.done()) {
    return Bad("trailing bytes");
  }
  return Status::Ok();
}

}  // namespace tebis
