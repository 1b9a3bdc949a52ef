#include "src/lsm/btree_node.h"

#include <cassert>
#include <cstring>

namespace tebis {
namespace {

NodeHeader* MutableHeader(char* data) { return reinterpret_cast<NodeHeader*>(data); }

}  // namespace

// --- LeafNodeView ---------------------------------------------------------

uint32_t LeafNodeView::PrefixBound(const char* probe, uint32_t from, bool upper) const {
  uint32_t lo = from;
  uint32_t hi = num_entries();
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    const int c = memcmp(entry(mid).prefix, probe, kPrefixSize);
    if (c < 0 || (upper && c == 0)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StatusOr<int> LeafNodeView::CompareTied(const LeafEntry& e, Slice key,
                                        const FullKeyLoader& full_key) {
  // A key that fits the prefix is a prefix of every other key whose padded
  // prefix ties with it, so the shorter key is the smaller.
  const size_t size = e.key_size();
  if (size <= kPrefixSize || key.size() <= kPrefixSize) {
    if (size == key.size()) {
      return 0;
    }
    return size < key.size() ? -1 : 1;
  }
  TEBIS_ASSIGN_OR_RETURN(std::string stored, full_key(e.log_offset(), size));
  return Slice(stored).Compare(key);
}

StatusOr<uint32_t> LeafNodeView::LowerBound(Slice key, const FullKeyLoader& full_key) const {
  char probe[kPrefixSize];
  MakePrefix(key, probe);
  uint32_t lo = PrefixBound(probe, 0, /*upper=*/false);
  uint32_t hi = PrefixBound(probe, lo, /*upper=*/true);
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    TEBIS_ASSIGN_OR_RETURN(int c, CompareTied(entry(mid), key, full_key));
    if (c < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StatusOr<uint32_t> LeafNodeView::Find(Slice key, uint64_t key_hash,
                                      const FullKeyLoader& full_key) const {
  char probe[kPrefixSize];
  MakePrefix(key, probe);
  const uint16_t tag = KeyTag(key_hash);
  const uint32_t n = num_entries();
  for (uint32_t i = PrefixBound(probe, 0, /*upper=*/false); i < n; ++i) {
    const LeafEntry& e = entry(i);
    if (memcmp(e.prefix, probe, kPrefixSize) != 0) {
      break;  // past the tied run
    }
    if (e.key_size() != key.size() || (key.size() > kPrefixSize && e.key_tag != tag)) {
      continue;
    }
    TEBIS_ASSIGN_OR_RETURN(int c, CompareTied(e, key, full_key));
    if (c == 0) {
      return i;
    }
    if (c > 0) {
      break;  // the run is sorted: every later entry is larger still
    }
  }
  return Status::NotFound();
}

// --- LeafNodeBuilder --------------------------------------------------------

LeafNodeBuilder::LeafNodeBuilder(char* data, size_t node_size)
    : data_(data),
      node_size_(node_size),
      capacity_(static_cast<uint32_t>(LeafCapacity(node_size))),
      count_(0) {
  Reset();
}

void LeafNodeBuilder::Add(Slice key, uint64_t log_offset, bool tombstone, uint64_t key_hash) {
  assert(!Full());
  assert(log_offset <= kLeafOffsetMask && !key.empty() && key.size() <= kMaxKeySize);
  auto* entries = reinterpret_cast<LeafEntry*>(data_ + sizeof(NodeHeader));
  LeafEntry& e = entries[count_++];
  e.word = LeafEntry::Pack(log_offset, key.size(), tombstone);
  e.key_tag = KeyTag(key_hash);
  MakePrefix(key, e.prefix);
}

void LeafNodeBuilder::Finish() {
  NodeHeader* h = MutableHeader(data_);
  h->magic = kLeafMagic;
  h->tree_height = 0;
  h->reserved = 0;
  h->num_entries = count_;
  h->cell_bytes = 0;
}

void LeafNodeBuilder::Reset() {
  memset(data_, 0, node_size_);
  count_ = 0;
}

// --- IndexNodeView ------------------------------------------------------------

const char* IndexNodeView::cell(uint32_t i) const {
  const auto* slots = reinterpret_cast<const uint16_t*>(data_ + sizeof(NodeHeader));
  return data_ + slots[i];
}

Slice IndexNodeView::key(uint32_t i) const {
  const char* c = cell(i);
  uint16_t len;
  memcpy(&len, c, sizeof(len));
  return Slice(c + kIndexCellHeaderSize, len);
}

uint64_t IndexNodeView::child(uint32_t i) const {
  const char* c = cell(i);
  uint64_t off;
  memcpy(&off, c + sizeof(uint16_t), sizeof(off));
  return off;
}

uint32_t IndexNodeView::FindChild(Slice target) const {
  // Last entry with key <= target; entry 0 is the fallback for smaller keys.
  uint32_t lo = 0;
  uint32_t hi = num_entries();
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (key(mid).Compare(target) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0 : lo - 1;
}

// --- IndexNodeBuilder ---------------------------------------------------------

IndexNodeBuilder::IndexNodeBuilder(char* data, size_t node_size)
    : data_(data), node_size_(node_size), count_(0), cell_bytes_(0) {
  Reset();
}

bool IndexNodeBuilder::WouldOverflow(size_t key_len) const {
  // Summed, not subtracted: a cell larger than the space left below the
  // cells must not wrap around and read as fitting.
  const size_t slots_end = sizeof(NodeHeader) + (count_ + 1) * kIndexSlotSize;
  return slots_end + cell_bytes_ + IndexCellSize(key_len) > node_size_;
}

void IndexNodeBuilder::Add(Slice key, uint64_t child_offset) {
  assert(!WouldOverflow(key.size()));
  cell_bytes_ += IndexCellSize(key.size());
  char* c = data_ + node_size_ - cell_bytes_;
  const uint16_t len = static_cast<uint16_t>(key.size());
  memcpy(c, &len, sizeof(len));
  memcpy(c + sizeof(uint16_t), &child_offset, sizeof(child_offset));
  memcpy(c + kIndexCellHeaderSize, key.data(), key.size());
  auto* slots = reinterpret_cast<uint16_t*>(data_ + sizeof(NodeHeader));
  slots[count_++] = static_cast<uint16_t>(node_size_ - cell_bytes_);
}

void IndexNodeBuilder::Finish(uint16_t tree_height) {
  NodeHeader* h = MutableHeader(data_);
  h->magic = kIndexMagic;
  h->tree_height = tree_height;
  h->reserved = 0;
  h->num_entries = count_;
  h->cell_bytes = static_cast<uint32_t>(cell_bytes_);
}

void IndexNodeBuilder::Reset() {
  memset(data_, 0, node_size_);
  count_ = 0;
  cell_bytes_ = 0;
}

}  // namespace tebis
