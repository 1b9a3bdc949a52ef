// In-memory L0: a skiplist mapping keys to value-log locations. Kreon keeps
// L0 fully in memory to amortize I/O during the L0->L1 compaction; Tebis
// Send-Index backups do NOT keep one (paper §3.3), which is where the memory
// savings come from.
//
// Concurrency contract (threading model, see DESIGN.md): at most one
// writer at a time (the engine serializes Puts), any number of concurrent
// readers without locks. Nodes are published with release stores and read
// with acquire loads; node keys are immutable and locations are updated in
// place through one packed atomic word. Once a memtable is sealed (swapped
// behind a fresh active table) it is immutable and may be read freely by the
// background compaction.
#ifndef TEBIS_LSM_MEMTABLE_H_
#define TEBIS_LSM_MEMTABLE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/slice.h"
#include "src/storage/segment.h"

namespace tebis {

// Location of the newest version of a key.
struct ValueLocation {
  uint64_t log_offset = kInvalidOffset;
  bool tombstone = false;
};

class Memtable {
 public:
  Memtable();
  ~Memtable();

  Memtable(const Memtable&) = delete;
  Memtable& operator=(const Memtable&) = delete;

  // Inserts or overwrites the location of `key`. Single writer only.
  void Put(Slice key, ValueLocation location);

  // Group-commit insert: applies `count` entries in order (later
  // duplicates win, same as repeated Put). When consecutive keys land
  // adjacently in the skiplist — sorted client batches, sequential loads —
  // the splice position is reused instead of re-searching from the head.
  // Single writer only.
  struct BatchEntry {
    Slice key;
    ValueLocation location;
  };
  void PutBatch(const BatchEntry* entries, size_t count);

  // Returns true and fills `out` if the key is present (tombstones count as
  // present — the caller must check). Safe concurrently with one writer.
  bool Get(Slice key, ValueLocation* out) const;

  size_t entries() const { return entries_.load(std::memory_order_acquire); }
  size_t ApproximateMemoryBytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }

  // Sorted forward iterator. Safe concurrently with one writer: it observes
  // some consistent prefix-closed subset of the inserted keys.
  class Iterator {
   public:
    bool Valid() const { return node_ != nullptr; }
    Slice key() const;
    ValueLocation location() const;
    void Next();
    // Positions at the first entry >= target.
    void Seek(Slice target);
    void SeekToFirst();

   private:
    friend class Memtable;
    explicit Iterator(const Memtable* table) : table_(table), node_(nullptr) {}
    const Memtable* table_;
    const void* node_;
  };

  Iterator NewIterator() const { return Iterator(this); }

 private:
  struct Node;
  static constexpr int kMaxHeight = 12;

  Node* NewNode(Slice key, ValueLocation location, int height);
  int RandomHeight();
  // Returns the first node >= key; fills prev[] when non-null.
  Node* FindGreaterOrEqual(Slice key, Node** prev) const;
  // Inserts (or overwrites) `key` given its splice frontier: prev[] holds the
  // per-level predecessors and `ge` the first node >= key. Returns the node
  // that now holds the location and updates prev[] to remain a valid frontier
  // just past the touched node (the PutBatch adjacency hint).
  Node* InsertAt(Slice key, ValueLocation location, Node** prev, Node* ge);

  Node* head_;
  std::atomic<int> max_height_;
  Random rng_;
  std::atomic<size_t> entries_;
  std::atomic<size_t> memory_bytes_;
  std::vector<Node*> all_nodes_;  // owned; touched only by the writer / dtor
};

}  // namespace tebis

#endif  // TEBIS_LSM_MEMTABLE_H_
