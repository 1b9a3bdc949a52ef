// LRU page cache in front of the block device, standing in for Kreon's
// memory-mapped I/O cache. Lookups and scans read through it; compactions use
// "direct I/O" (they bypass the cache entirely, paper §2).
//
// The cache is striped into N independent shards (per-shard mutex, LRU
// list, and hash map) keyed by page number, so concurrent Gets on different
// pages do not serialize on one global lock. Hit/miss counters are atomics
// and are mirrored into the device's IoStats so cache efficiency shows up in
// the same place as the traffic it saves.
#ifndef TEBIS_LSM_PAGE_CACHE_H_
#define TEBIS_LSM_PAGE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/storage/block_device.h"

namespace tebis {

class PageCache {
 public:
  // `capacity_bytes` is rounded down to whole pages (minimum one page).
  // `page_size` must divide the device segment size. `shards` is a request:
  // it is clamped so every shard owns at least kMinPagesPerShard pages (tiny
  // caches degrade to a single shard, keeping eviction exact for them).
  PageCache(BlockDevice* device, uint64_t capacity_bytes, uint64_t page_size = 4096,
            uint32_t shards = kDefaultShards);

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // Reads [offset, offset+n) through the cache. The range must stay within one
  // segment. Whole pages are faulted from the device on miss (accounted as
  // `io_class` traffic), mirroring mmap behaviour. Thread-safe.
  Status Read(uint64_t offset, size_t n, char* out, IoClass io_class);

  // Drops all pages of a segment (called when a compaction frees it).
  // Thread-safe.
  void InvalidateSegment(SegmentId segment);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t page_size() const { return page_size_; }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }

  static constexpr uint32_t kDefaultShards = 8;
  static constexpr uint64_t kMinPagesPerShard = 8;

  // Shard-count request for a server hosting `stores` engines on one
  // device: a fixed budget of shard locks is split across the stores — a
  // dedicated server gives its single store more stripes than the standalone
  // default, while a many-region server backs off so the total lock count
  // (and per-shard LRU granularity) stays bounded. Standalone KvStores keep
  // kDefaultShards.
  static uint32_t ShardsForStores(size_t stores);

 private:
  struct Page {
    uint64_t page_offset;
    std::unique_ptr<char[]> data;
  };
  using LruList = std::list<Page>;

  struct Shard {
    std::mutex mutex;
    LruList lru;  // front = most recent
    std::unordered_map<uint64_t, LruList::iterator> pages;
  };

  Shard& ShardFor(uint64_t page_offset) {
    // Mix the page number so consecutive pages spread across shards.
    uint64_t page = page_offset / page_size_;
    page ^= page >> 7;
    return *shards_[page % shards_.size()];
  }

  Status FaultPage(Shard& shard, uint64_t page_offset, IoClass io_class, const char** data);

  BlockDevice* const device_;
  const uint64_t page_size_;
  uint64_t capacity_pages_per_shard_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace tebis

#endif  // TEBIS_LSM_PAGE_CACHE_H_
