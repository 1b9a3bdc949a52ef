// Simulated NVMe block device. Storage is segment-granular: callers allocate
// and free whole segments, and all reads/writes must stay inside one segment
// (which is how Kreon/Tebis lay out both the value log and the level indexes).
//
// The device is memory-backed by default and optionally file-backed. Every
// transfer is accounted in IoStats, and an optional cost model converts bytes
// into wall-clock delay so that I/O amplification shows up in throughput the
// way it does on a real flash device.
#ifndef TEBIS_STORAGE_BLOCK_DEVICE_H_
#define TEBIS_STORAGE_BLOCK_DEVICE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/storage/io_stats.h"
#include "src/storage/segment.h"

namespace tebis {

class BlockDevice;

// Test hook consulted on every device transfer (see src/testing/fault_injector
// for the deterministic implementation). The device stays ignorant of fault
// scheduling: it only asks "what happens to this I/O?" and carries out the
// answer — fail it, apply a torn prefix, or snapshot the device image first
// (modelling the on-flash state at a crash point).
class BlockDeviceFaultHook {
 public:
  virtual ~BlockDeviceFaultHook() = default;

  struct WriteDecision {
    Status status;  // non-ok: the write fails with this status (nothing written)
    // < data size: torn write — only this prefix reaches the device, then the
    // write fails with IoError. SIZE_MAX = intact.
    size_t keep_bytes = SIZE_MAX;
    // Clone the device image *before* this write lands (crash-point snapshot,
    // retrievable via BlockDevice::TakeCrashSnapshot).
    bool take_snapshot = false;
  };

  // One flipped bit in the device image: XOR `mask` into the byte at absolute
  // device offset `offset`. Applied to the stored image (persistent bit-rot),
  // not just the returned buffer — subsequent reads see the damage too.
  struct BitFlip {
    uint64_t offset = 0;
    uint8_t mask = 0;
  };

  struct ReadDecision {
    Status status;  // non-ok: the read fails with this status (nothing read)
    // Bit-rot to burn into the device image before serving this read. Offsets
    // outside the read's own range are still applied (latent damage).
    std::vector<BitFlip> image_flips;
  };

  // `write_seq` / `read_seq` are per-device 0-based transfer counters;
  // `offset`/`n` describe the transfer so corruption rules can target it.
  virtual WriteDecision OnDeviceWrite(const std::string& device, uint64_t write_seq) = 0;
  virtual ReadDecision OnDeviceRead(const std::string& device, uint64_t read_seq, uint64_t offset,
                                    size_t n) = 0;
};

// Bandwidth/latency model. Zero bandwidth disables throttling for that
// direction. The throttle accumulates debt and sleeps in >=100us chunks so
// small transfers are cheap to account.
struct DeviceCostModel {
  uint64_t read_bandwidth_bytes_per_sec = 0;
  uint64_t write_bandwidth_bytes_per_sec = 0;
  uint64_t read_latency_ns_per_op = 0;
  uint64_t write_latency_ns_per_op = 0;
  // Debt mode (default): each transfer's cost is charged to the *calling*
  // thread, which sleeps once enough accumulates — cheap, but concurrent
  // callers sleep in parallel, so a device's aggregate rate scales with the
  // number of threads hitting it. Hard-cap mode instead reserves a slot on a
  // per-device timeline and every caller waits for its slot: the device is a
  // single-queue resource whose aggregate bandwidth is capped no matter how
  // many threads drive it. Use for experiments where the contrast is *which
  // device* absorbs the I/O (e.g. replica read fan-out).
  bool hard_cap = false;

  bool Enabled() const {
    return read_bandwidth_bytes_per_sec != 0 || write_bandwidth_bytes_per_sec != 0 ||
           read_latency_ns_per_op != 0 || write_latency_ns_per_op != 0;
  }
};

struct BlockDeviceOptions {
  uint64_t segment_size = kDefaultSegmentSize;  // must be a power of two
  uint64_t max_segments = 1 << 20;              // capacity cap
  // Transfers are accounted (and throttled) rounded up to this many bytes —
  // real flash moves whole sectors no matter how few bytes a read wants.
  // 1 = byte-accurate (unit tests); benchmarks use 512.
  uint64_t accounting_granularity = 1;
  DeviceCostModel cost_model;
  // If non-empty the device persists segments to this file with pread/pwrite;
  // otherwise segments live in anonymous memory.
  std::string backing_file;
  // Recovery: open the backing file without truncating and fault segment
  // contents from it on first access.
  bool reopen_existing = false;
  // Identifies this device to the fault hook (e.g. "server0").
  std::string name;
};

class BlockDevice {
 public:
  static StatusOr<std::unique_ptr<BlockDevice>> Create(const BlockDeviceOptions& options);
  ~BlockDevice();

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  const SegmentGeometry& geometry() const { return geometry_; }
  uint64_t segment_size() const { return geometry_.segment_size(); }
  uint64_t max_segments() const { return options_.max_segments; }

  // Allocates a fresh segment and returns its id. Freed segments are recycled.
  StatusOr<SegmentId> AllocateSegment();
  Status FreeSegment(SegmentId segment);

  // Recovery: marks `segments` as allocated (they belong to a store being
  // recovered from this device's backing file). Fails if any is already
  // allocated.
  Status AdoptAllocated(const std::vector<SegmentId>& segments);
  bool IsAllocated(SegmentId segment) const;
  uint64_t AllocatedSegments() const;

  // Writes `data` at `device_offset`. The range must lie inside one allocated
  // segment.
  Status Write(uint64_t device_offset, Slice data, IoClass io_class);

  // Reads `n` bytes at `device_offset` into `out` (same single-segment rule).
  Status Read(uint64_t device_offset, size_t n, char* out, IoClass io_class) const;

  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }

  const std::string& name() const { return options_.name; }

  // Number of reads issued so far — the `read_seq` the fault hook will see on
  // the next read (lets tests aim CorruptNthDeviceRead at a specific read).
  uint64_t read_seq() const { return read_seq_.load(std::memory_order_relaxed); }

  // Attaches (nullptr detaches) the fault hook; every subsequent transfer
  // consults it.
  void set_fault_hook(BlockDeviceFaultHook* hook) { fault_hook_ = hook; }

  // Deep-copies the current memory image into a fresh memory-backed device
  // with a *clean* allocation state — exactly what a reopened backing file
  // looks like: the contents exist but nothing is adopted yet, so
  // KvStore::Recover works on the clone unchanged.
  StatusOr<std::unique_ptr<BlockDevice>> CloneContents() const;

  // Retrieves (and clears) the crash-point snapshot taken when the fault hook
  // requested one (WriteDecision::take_snapshot). Null if none was taken.
  std::unique_ptr<BlockDevice> TakeCrashSnapshot() { return std::move(crash_snapshot_); }

 private:
  explicit BlockDevice(const BlockDeviceOptions& options);
  Status Init();

  // An immutable segment image. A transfer pins one under mutex_ and copies
  // outside it; a write installs a fresh image rather than editing the
  // pinned one, so a read racing a write or a free copies whole old bytes
  // from memory it keeps alive.
  using SegmentImage = std::shared_ptr<const char[]>;

  // Validates a transfer (non-empty, inside one allocated segment) and pins
  // that segment's image, under one acquisition of mutex_. Null for a
  // segment never written, which reads as zeros.
  StatusOr<SegmentImage> PinImage(uint64_t device_offset, size_t n) const;
  // Installs a copy of `segment`'s image edited by `edit`. A concurrent
  // install of the same segment makes it redo the copy on the newer image.
  // Fails like an I/O when the segment is not allocated.
  Status ReplaceImage(SegmentId segment, const std::function<void(char* image)>& edit) const;
  // Burns injected bit-rot into the stored image (and the backing file when
  // file-backed). Flips aimed at unallocated segments are dropped.
  void ApplyBitFlips(const std::vector<BlockDeviceFaultHook::BitFlip>& flips) const;
  void Throttle(bool is_write, size_t n) const;
  uint64_t AccountedBytes(size_t n) const;

  // `segment`'s image, faulted from the backing file on first access when
  // reopening one. Requires mutex_.
  SegmentImage ImageLocked(SegmentId segment) const;

  const BlockDeviceOptions options_;
  const SegmentGeometry geometry_;

  mutable std::mutex mutex_;
  // One image per segment, null until first written (memory-backed mode). In
  // file-backed mode images act as a write-through copy of the file.
  mutable std::vector<SegmentImage> segments_;
  std::vector<bool> allocated_;
  std::vector<SegmentId> free_list_;
  SegmentId next_segment_ = 0;
  int fd_ = -1;

  BlockDeviceFaultHook* fault_hook_ = nullptr;
  mutable std::atomic<uint64_t> write_seq_{0};
  mutable std::atomic<uint64_t> read_seq_{0};
  std::unique_ptr<BlockDevice> crash_snapshot_;

  mutable IoStats stats_;

  // Cost-model debt / hard-cap timelines, guarded by throttle_mutex_.
  mutable std::mutex throttle_mutex_;
  mutable uint64_t read_debt_ns_ = 0;
  mutable uint64_t write_debt_ns_ = 0;
  mutable uint64_t read_available_ns_ = 0;
  mutable uint64_t write_available_ns_ = 0;
};

}  // namespace tebis

#endif  // TEBIS_STORAGE_BLOCK_DEVICE_H_
