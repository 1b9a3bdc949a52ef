// Segmented append-only value log (KV separation, paper §2). The tail segment
// lives in memory; when it fills or the engine seals it, its used prefix and
// a 4-byte pad marker go to the device in one write and observers are
// notified — that is the hook the replication layer uses to mirror the log to
// backups (paper §3.2). The rest of the segment is never written: every
// reader stops at the marker.
//
// Concurrency contract: all mutating calls (Append, FlushTail,
// AppendRawSegment, TrimHead) come from ONE thread at a time — the engine's
// writer path or a quiesced maintenance operation. ReadRecord/ReadKey are safe
// from any number of concurrent threads: they take a short internal lock only
// when the offset may live in the in-memory tail, and read flushed segments
// straight from the device/cache.
#ifndef TEBIS_LSM_VALUE_LOG_H_
#define TEBIS_LSM_VALUE_LOG_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/lsm/format.h"
#include "src/storage/block_device.h"

namespace tebis {

class PageCache;

// Decoded view of one log record.
struct LogRecord {
  std::string key;
  std::string value;
  bool tombstone = false;
  uint64_t offset = kInvalidOffset;  // device offset of the record
  size_t encoded_size = 0;
};

// A record decoded in place: `key` and `value` view the bytes it was
// decoded from, so a walk that keeps few records copies none of the rest.
struct LogRecordView {
  Slice key;
  Slice value;
  bool tombstone = false;
  uint64_t offset = kInvalidOffset;
  size_t encoded_size = 0;

  LogRecord ToRecord() const;  // copied out
};

// Observer of log appends/flushes: the replication data plane's doorbell.
// Callbacks run on the appending thread.
class ValueLogObserver {
 public:
  virtual ~ValueLogObserver() = default;

  // `record_count` consecutive records were appended to the tail at
  // `offset_in_segment` of `segment`: one record per plain append, a whole
  // run per group commit. `run_with_terminator` points into the tail buffer
  // and covers the records plus the 4 zero bytes the log always reserves
  // after them.
  virtual void OnAppend(SegmentId segment, uint64_t offset_in_segment, Slice run_with_terminator,
                        size_t record_count) {}

  // The tail segment was persisted to the device. `sealed_bytes` is exactly
  // what the seal wrote: the used prefix followed by the 4-byte pad marker,
  // at most one segment.
  virtual void OnTailFlush(SegmentId segment, Slice sealed_bytes) {}
};

class ValueLog {
 public:
  // The log allocates segments from `device` and writes flushes with
  // IoClass::kLogFlush.
  static StatusOr<std::unique_ptr<ValueLog>> Create(BlockDevice* device);

  // Recovery: rebuilds a log around already-allocated flushed segments (from
  // a checkpoint manifest) and opens a fresh tail.
  static StatusOr<std::unique_ptr<ValueLog>> Recover(BlockDevice* device,
                                                     std::vector<SegmentId> flushed_segments);

  ValueLog(const ValueLog&) = delete;
  ValueLog& operator=(const ValueLog&) = delete;

  void set_observer(ValueLogObserver* observer) { observer_ = observer; }
  const BlockDevice* device() const { return device_; }

  struct AppendResult {
    uint64_t offset;       // device offset of the record
    size_t encoded_size;   // bytes occupied in the log
    bool flushed_segment;  // true if this append sealed the previous tail
  };

  // The one record-size rule: the key holds [1, kMaxKeySize] bytes and the
  // encoded record plus the pad marker fits one segment. Returns the encoded
  // size, or InvalidArgument. Append checks it; a group's writer checks it
  // up front so one bad op can fail alone.
  StatusOr<size_t> CheckedRecordSize(size_t key_size, size_t value_size) const;

  // Appends one record and returns its device offset. May flush the tail
  // (allocating a new one) when the record does not fit.
  StatusOr<AppendResult> Append(Slice key, Slice value, bool tombstone);

  // Group commit: between BeginGroup and EndGroup, appends accumulate into
  // one contiguous run instead of firing per-record observer callbacks;
  // EndGroup (or a mid-group seal) emits one OnAppend for the whole run.
  // BeginGroup reserves one contiguous extent: when the group's `bytes`
  // (encoded) would fit a fresh segment but not the current tail remainder,
  // the tail is pre-sealed so the group's bytes land adjacent. `*flushed` is
  // set when a pre-seal flushed a segment. Single-writer, like Append.
  Status BeginGroup(size_t bytes, bool* flushed);
  void EndGroup();

  // Forces the current tail to the device (its used prefix plus the pad
  // marker) and opens a fresh tail. No-op on an empty tail.
  Status FlushTail();

  // Reads the record at `offset`. Serves from the in-memory tail when the
  // offset is in the unflushed tail. When `cache` is non-null, flushed reads
  // go through it; otherwise straight to the device with `io_class`.
  Status ReadRecord(uint64_t offset, LogRecord* out, PageCache* cache, IoClass io_class) const;

  // Reads only the key (and tombstone flag) of the record at `offset` — used
  // by merges and tied leaf searches over keys longer than kPrefixSize, which
  // never need the value.
  // `key_size` is the size the leaf entry records, so header + key arrive in
  // one read; a record header that disagrees with it is kCorruption.
  Status ReadKey(uint64_t offset, size_t key_size, std::string* key, bool* tombstone,
                 PageCache* cache, IoClass io_class) const;

  // Reads the record an index entry for live key `key` points at. A record
  // that fails to decode, holds another key or is a tombstone is kCorruption
  // naming the device and offset: the index, not the log, decides which key
  // an offset serves, so this is the guard against a wrong record.
  Status ReadIndexedRecord(uint64_t offset, Slice key, LogRecord* out, PageCache* cache,
                           IoClass io_class) const;

  SegmentId tail_segment() const {
    std::lock_guard<std::mutex> lock(tail_mutex_);
    return tail_segment_;
  }
  uint64_t tail_used() const {
    std::lock_guard<std::mutex> lock(tail_mutex_);
    return tail_used_;
  }
  // True while the tail holds unflushed records: the demotion/handover
  // guard.
  bool HasUnflushedRecords() const { return tail_used() != 0; }
  // Direct reference — only valid while no mutating call runs concurrently
  // (checkpoint, recovery, integrity checks). Concurrent readers use the
  // snapshot below.
  const std::vector<SegmentId>& flushed_segments() const { return flushed_segments_; }
  std::vector<SegmentId> FlushedSegmentsSnapshot() const {
    std::lock_guard<std::mutex> lock(tail_mutex_);
    return flushed_segments_;
  }
  size_t flushed_segment_count() const {
    std::lock_guard<std::mutex> lock(tail_mutex_);
    return flushed_segments_.size();
  }
  uint64_t total_appended_bytes() const {
    return total_appended_bytes_.load(std::memory_order_relaxed);
  }

  // Copy of the unflushed tail image ([0, tail_used_)) followed by a 4-byte
  // zero terminator, or empty if there is no open tail / nothing appended.
  // Used to seed a freshly attached backup's replication buffer so it mirrors
  // the primary's tail exactly (bytes past tail_used_ are written outside the
  // lock, so only the published prefix is copied).
  std::string TailImageSnapshot() const {
    std::lock_guard<std::mutex> lock(tail_mutex_);
    if (tail_buffer_ == nullptr || tail_used_ == 0) {
      return std::string();
    }
    std::string image(tail_buffer_.get(), tail_used_);
    image.append(4, '\0');
    return image;
  }

  // Frees the oldest `n` flushed segments (value-log trim after GC).
  Status TrimHead(size_t n);

  // Installs a sealed segment prefix produced elsewhere — a backup persisting
  // its replication buffer on a flush message (§3.2): the bytes the primary's
  // seal wrote, at most one segment. Allocates a local segment, writes the
  // bytes with IoClass::kLogFlush, registers it as flushed, and returns the
  // local segment id (the backup side of the log map entry).
  StatusOr<SegmentId> AppendRawSegment(Slice sealed_bytes);

  // Decodes every record in a raw segment image, calling `fn(record)`; stops
  // at the pad marker or at a zeroed header. Used by Build-Index backups and
  // by L0 replay during promotion.
  static Status ForEachRecord(Slice segment_bytes, uint64_t segment_base,
                              const std::function<Status(const LogRecord&)>& fn);

  // The length a seal wrote for flushed segment image `segment_bytes`: its
  // records plus the pad marker after them. Walks record headers only (no
  // checksums) to the first pad marker or zeroed header; a header that would
  // overrun the image answers the whole image's size.
  static size_t SealedPrefixLength(Slice segment_bytes);

  // Reads the sealed prefix of flushed `segment` from the device as
  // `io_class`: the SealedPrefixLength bytes, fetched in growing chunks that
  // stop at the pad marker, so a segment sealed early costs its used bytes,
  // not a whole segment. A damaged header reads the whole image. When
  // `bytes_read` is set, the bytes fetched from the device are added to it,
  // whether or not the read then fails.
  StatusOr<std::string> ReadSealedPrefix(SegmentId segment, IoClass io_class,
                                         uint64_t* bytes_read = nullptr) const;

  // Reads flushed `segment`'s sealed prefix (ReadSealedPrefix, which adds to
  // `bytes_read` when set) and decodes its records through ForEachRecord: a
  // read error, a corrupt record, or the first error `fn` returns ends the
  // walk with that status.
  Status ForEachRecordIn(SegmentId segment, IoClass io_class,
                         const std::function<Status(const LogRecord&)>& fn,
                         uint64_t* bytes_read = nullptr) const;

  // Visits the records of a replication-buffer image — the tail mirror — in
  // place, in append order. A record that does not decode — a torn trailing
  // one-sided write — ends the walk. Offsets are relative to the image.
  static void ForEachBufferRecord(Slice image,
                                  const std::function<void(const LogRecordView&)>& fn);
  // The same records, copied out: what promotion replays.
  static std::vector<LogRecord> DecodeBufferImage(Slice image);

 private:
  explicit ValueLog(BlockDevice* device);
  Status OpenNewTail();
  // Writes the tail's used bytes and a pad marker to its segment, notifies
  // the observer and registers the segment as flushed.
  Status SealTail();

  // The in-progress group-commit run: the contiguous byte range the current
  // group has appended to the tail segment. Emitted as one OnAppend either at
  // EndGroup or just before a mid-group seal, so it never spans two segments.
  struct GroupRun {
    uint64_t start = 0;  // offset in segment of the first record
    uint64_t bytes = 0;  // encoded bytes of all records in the run
    size_t count = 0;    // 0 = no run open
  };
  void ExtendRun(uint64_t offset, size_t bytes);
  void EmitRun();

  // Decodes one record from `buf` (which has at least header bytes
  // available), in place or copied out.
  static StatusOr<LogRecordView> DecodeView(const char* buf, size_t available, uint64_t offset);
  static StatusOr<LogRecord> Decode(const char* buf, size_t available, uint64_t offset);
  // ForEachRecord over records decoded in place.
  static Status WalkRecords(Slice segment_bytes, uint64_t segment_base,
                            const std::function<Status(const LogRecordView&)>& fn);

  BlockDevice* const device_;
  ValueLogObserver* observer_ = nullptr;

  // Orders tail-state publication (tail_segment_, tail_used_, buffer resets,
  // flushed_segments_) against concurrent tail-path readers. Never held across
  // device I/O or observer callbacks. Record bytes past tail_used_ are written
  // outside the lock: readers never look beyond the published tail_used_.
  mutable std::mutex tail_mutex_;

  SegmentId tail_segment_ = kInvalidSegment;
  std::unique_ptr<char[]> tail_buffer_;
  uint64_t tail_used_ = 0;

  // Group-commit state; touched only by the single writer thread.
  bool group_active_ = false;
  GroupRun run_;

  std::vector<SegmentId> flushed_segments_;
  std::atomic<uint64_t> total_appended_bytes_{0};
};

}  // namespace tebis

#endif  // TEBIS_LSM_VALUE_LOG_H_
