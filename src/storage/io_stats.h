// Byte-accurate device traffic accounting. I/O amplification in the paper is
// total device traffic / dataset size, broken down by what caused the I/O.
#ifndef TEBIS_STORAGE_IO_STATS_H_
#define TEBIS_STORAGE_IO_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace tebis {

// Why an I/O happened. Used to attribute amplification in the experiment
// harness (e.g. compaction reads are the traffic Send-Index removes from
// backups).
enum class IoClass : int {
  kLogFlush = 0,      // value-log tail flush
  kCompactionRead,    // reading L_i / L_{i+1} (and log keys) during compaction
  kCompactionWrite,   // writing the merged L'_{i+1}
  kIndexRewrite,      // backup writing shipped+rewritten index segments
  kLookup,            // get/scan reads
  kRecovery,          // promotion / replay reads
  kGc,                // value-log garbage collection
  kScrub,             // background integrity scrub + repair traffic
  kOther,
};

inline constexpr int kNumIoClasses = static_cast<int>(IoClass::kOther) + 1;

const char* IoClassName(IoClass c);

class IoStats {
 public:
  void AddRead(IoClass c, uint64_t bytes) {
    read_bytes_[static_cast<int>(c)].fetch_add(bytes, std::memory_order_relaxed);
    read_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddWrite(IoClass c, uint64_t bytes) {
    write_bytes_[static_cast<int>(c)].fetch_add(bytes, std::memory_order_relaxed);
    write_ops_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t ReadBytes(IoClass c) const {
    return read_bytes_[static_cast<int>(c)].load(std::memory_order_relaxed);
  }
  uint64_t WriteBytes(IoClass c) const {
    return write_bytes_[static_cast<int>(c)].load(std::memory_order_relaxed);
  }

  uint64_t TotalReadBytes() const;
  uint64_t TotalWriteBytes() const;
  uint64_t TotalBytes() const { return TotalReadBytes() + TotalWriteBytes(); }

  uint64_t ReadOps() const { return read_ops_.load(std::memory_order_relaxed); }
  uint64_t WriteOps() const { return write_ops_.load(std::memory_order_relaxed); }

  // Page-cache accounting in front of this device (the cache is shared
  // by concurrent readers, so the counters are atomics and live next to the
  // traffic they avoid).
  void AddCacheHit() { cache_hits_.fetch_add(1, std::memory_order_relaxed); }
  void AddCacheMiss() { cache_misses_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t CacheHits() const { return cache_hits_.load(std::memory_order_relaxed); }
  uint64_t CacheMisses() const { return cache_misses_.load(std::memory_order_relaxed); }

  void Reset();
  std::string Summary() const;

 private:
  std::array<std::atomic<uint64_t>, kNumIoClasses> read_bytes_{};
  std::array<std::atomic<uint64_t>, kNumIoClasses> write_bytes_{};
  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> write_ops_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
};

}  // namespace tebis

#endif  // TEBIS_STORAGE_IO_STATS_H_
