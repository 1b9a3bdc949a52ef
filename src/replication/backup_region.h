// The backup half of a hosted region, whichever engine maintains its index:
// Send-Index (rewrites the primary's shipped index, §3.3) or Build-Index
// (re-inserts flushed records and compacts on its own, §4). Both replicate
// the value log alike (§3.2), so this base owns that frame once: epoch
// fencing, log flushes into local segments and the primary -> local log map,
// trims, re-keying the map to a promoted backup's (§3.5), the fenced replica
// read frame, and promotion's replay of the RDMA buffer. An engine supplies
// only what differs, through the protected hooks. A region handle holds one
// of these, so every role-dependent call dispatches once here. Calls only
// Send-Index supports (scrub, repair) are answered by the Build-Index engine
// itself: FailedPrecondition or empty, as each declaration says.
#ifndef TEBIS_REPLICATION_BACKUP_REGION_H_
#define TEBIS_REPLICATION_BACKUP_REGION_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/lsm/compaction.h"
#include "src/lsm/kv_store.h"
#include "src/lsm/value_log.h"
#include "src/net/fabric.h"
#include "src/replication/replication_wire.h"
#include "src/replication/segment_map.h"
#include "src/storage/block_device.h"
#include "src/telemetry/telemetry.h"

namespace tebis {

class BackupRegion : public ReplicationMessageHandler {
 public:
  virtual ~BackupRegion() = default;

  // Control plane (§3.2–§3.5): checks the message's epoch (CheckEpoch), then
  // applies log flushes and trims here and hands every other message to the
  // engine. Safe to call concurrently from different shipping streams.
  Status Handle(const ReplicationMessage& msg) final;

  // --- replica reads, fenced by the client's {min_epoch, min_seq} ---

  // A read this replica cannot answer consistently yet is rejected with
  // FailedPrecondition, exactly like a stale write. Newest wins: the RDMA
  // buffer, then what the engine holds below it. On success `*visible_seq`
  // (when non-null) is the replica's visible commit sequence, >= min_seq —
  // the client folds it into its monotonic-read high-water mark.
  StatusOr<std::string> Get(Slice key, uint64_t min_epoch, uint64_t min_seq,
                            uint64_t* visible_seq);
  StatusOr<std::vector<KvPair>> Scan(Slice start, size_t limit, uint64_t min_epoch,
                                     uint64_t min_seq, uint64_t* visible_seq);
  // Commit sequence this replica can currently serve (flushed high-water plus
  // records sitting in the RDMA buffer).
  uint64_t visible_seq() const;
  // Unfenced lookup through what the replica has persisted (Send-Index: its
  // device levels; Build-Index: its engine), for consistency checks on a
  // quiesced region.
  virtual StatusOr<std::string> DebugGet(Slice key) = 0;

  // --- epoch fencing (§3.5) ---

  // Rejects control traffic stamped with an epoch older than this region's
  // configuration generation; adopts newer epochs (and raises the RDMA-buffer
  // fence so the deposed primary's one-sided writes stop landing too).
  Status CheckEpoch(uint64_t msg_epoch);
  // Raise-to-at-least; also fences the RDMA buffer at the new epoch.
  void set_region_epoch(uint64_t epoch);
  uint64_t region_epoch() const { return region_epoch_.load(std::memory_order_acquire); }

  // --- promotion (§3.5) ---

  // Primary segment -> local segment. Only valid while no control traffic can
  // arrive concurrently (quiesced region — the same contract as
  // KvStore::level()).
  const SegmentMap& log_map() const { return log_map_; }
  // Converts the backup into a primary engine; the object is consumed. When
  // `replay_rdma_buffer` is set the unflushed RDMA buffer (records the
  // primary acked but had not flushed) is re-applied too; pass false when the
  // caller replays it through the wrapped PrimaryRegion instead, so the
  // re-appends replicate to the remaining backups.
  StatusOr<std::unique_ptr<KvStore>> Promote(bool replay_rdma_buffer = true);
  // A *different* backup was promoted: re-key the log map (and the flush
  // order) from old-primary segment numbers to the new primary's (§3.2,
  // in-memory only), so the new primary's flushes are told apart from the
  // old one's. `epoch`, when non-zero, is the configuration generation of the
  // promotion; re-keying is destructive if repeated, so a retry carrying an
  // epoch this node already adopted is a no-op (reentrant recovery).
  Status AdoptNewPrimaryLogMap(const SegmentMap& new_primary_log_map, uint64_t epoch = 0);

  // The local value log flushes persist into and trims cut.
  virtual ValueLog* value_log() = 0;
  // Memtable bytes; Send-Index keeps no L0 (the §5.5 saving).
  virtual uint64_t l0_memory_bytes() const = 0;
  const RegisteredBuffer* rdma_buffer() const { return rdma_buffer_.get(); }
  // Telemetry plane the region's instruments live in: the shared plane from
  // KvStoreOptions::telemetry, else a private one owned by this region. The
  // instruments carry KvStoreOptions::telemetry_labels.
  Telemetry* telemetry() const { return telemetry_; }
  const MetricLabels& telemetry_labels() const { return options_.telemetry_labels; }

  // --- integrity: scrub and online repair ---

  // Build-Index owns no shipped, checksummed index: Scrub,
  // RepairQuarantinedLevels and ServeRepairFetch answer FailedPrecondition
  // and QuarantinedLevels is always empty.
  virtual StatusOr<KvStore::ScrubReport> Scrub(const KvStore::ScrubOptions& options) = 0;
  virtual std::vector<int> QuarantinedLevels() const = 0;
  virtual Status RepairQuarantinedLevels(const KvStore::SegmentFetcher& fetch) = 0;
  // One index segment of `level` in PRIMARY space, verified; `*crc_out`
  // (when non-null) is its CRC32C.
  virtual StatusOr<std::string> ServeRepairFetch(uint32_t level, uint64_t seg_index,
                                                 uint32_t* crc_out) = 0;

 protected:
  // Registers the backup.* instruments every engine counts alike.
  BackupRegion(BlockDevice* device, const KvStoreOptions& options,
               std::shared_ptr<RegisteredBuffer> rdma_buffer);

  // InvalidArgument unless `rdma_buffer` holds at least one of `device`'s
  // segments; every engine factory checks it before constructing.
  static Status CheckRdmaBuffer(const BlockDevice* device, const RegisteredBuffer* rdma_buffer);

  // --- engine hooks ---

  // Runs after a log flush persisted the primary's sealed `image` as local
  // segment `local`, before the buffer is absorbed; the state lock is
  // held exclusive. Send-Index has nothing to do; Build-Index replays the
  // records into its engine.
  virtual Status OnLogFlushedLocked(SegmentId local, Slice image) = 0;
  // Runs before the oldest `segments` flushed segments are trimmed; the state
  // lock is held exclusive and an error rejects the trim. Must leave no index
  // entry pointing into those segments.
  virtual Status PrepareTrimLocked(size_t segments) = 0;
  // Every control message other than a log flush or trim, epoch-checked.
  virtual Status HandleIndexMessage(const ReplicationMessage& msg) = 0;
  // Replica lookup of `key` below the RDMA buffer; the state lock is held
  // shared.
  virtual StatusOr<std::string> GetBelowBufferLocked(Slice key) = 0;
  // Replica scan from `start`: `overlay` holds the RDMA buffer's records, one
  // version per key, and wins over everything the engine holds below it
  // (ScanOverOverlay). The state lock is held shared.
  virtual StatusOr<std::vector<KvPair>> ScanBelowBufferLocked(
      std::map<std::string, LogRecord> overlay, Slice start, size_t limit) = 0;
  // Hands the engine's state over as a primary engine holding every flushed
  // record; the RDMA buffer is the caller's (Promote).
  virtual StatusOr<std::unique_ptr<KvStore>> ReleaseStore() = 0;

  BlockDevice* const device_;
  const KvStoreOptions options_;

  // Reader-writer lock over region state. Shipping mutations (log flush,
  // trim, re-keying, the engine's index installs) take it exclusive; the
  // replica read path takes it shared so concurrent reads proceed in
  // parallel — it touches only immutable flushed log data, the engine's
  // read-only state and layers with their own locks (device, value-log tail,
  // RDMA buffer). The visible sequence moves in lock-step with record
  // visibility, so a reader never observes data newer than what it reports.
  mutable std::shared_mutex state_mutex_;
  // --- guarded by state_mutex_ ---
  SegmentMap log_map_;
  std::vector<SegmentId> primary_flush_order_;  // primary segments in flush order

 private:
  // The backup.* instruments of the frame.
  struct FrameCounters {
    Counter* log_flushes = nullptr;
    Counter* epoch_rejected = nullptr;
    Counter* replica_gets = nullptr;
    Counter* replica_scans = nullptr;
    Counter* read_rejects_epoch = nullptr;  // reads fenced: replica epoch too old
    Counter* read_rejects_seq = nullptr;    // reads fenced: commit seq behind fence
  };

  // §3.2 step 2c/2d: persists exactly `tail_bytes` of the buffer — the bytes
  // the primary's seal wrote (SealBuffer) — as a local log segment and maps
  // `primary_segment` to it. `commit_seq` is the primary's commit sequence as
  // of this flush.
  Status HandleLogFlush(const FlushLogMsg& msg);
  // GC: drops the oldest `segments` flushed segments (the primary moved all
  // live data to the tail already) and their log-map entries.
  Status HandleTrimLog(size_t segments);

  // The image a flush of `tail_bytes` persists: the buffer's [0, tail_bytes),
  // the tail mirror. Puts the pad marker in the image's last 4 bytes, where
  // the buffer holds the zero terminator of the tail's last append, so the
  // image equals the bytes the primary's seal wrote. InvalidArgument — not
  // FailedPrecondition, which means "you are deposed" on this wire — for
  // `tail_bytes` below 4 or above a segment.
  StatusOr<Slice> SealBuffer(uint64_t tail_bytes);
  // After the sealed image is persisted: raises the flushed commit sequence
  // to `commit_seq` and scrubs the buffer's first header, so buffer parsing
  // restarts empty rather than counting the absorbed records twice toward
  // the visible sequence. Safe exactly then: FlushLog is synchronous, so the
  // primary is blocked on the ack and is not appending the next tail yet.
  void AbsorbBuffer(uint64_t commit_seq);

  using BufferVisitor = std::function<void(const LogRecordView& record)>;
  // Visits the records that have landed in the RDMA buffer, in place and in
  // append order (ValueLog::ForEachBufferRecord), inside the
  // buffer's read view, so a record a one-sided write is still landing is
  // never parsed. `visit` may be null. Returns the replica's visible commit
  // sequence: the flushed one plus the records visited.
  uint64_t ForEachBufferedLocked(const BufferVisitor& visit) const;
  // The read fence (§3.5) of every replica read: rejects a read whose
  // `min_epoch` is above this replica's epoch, or whose `min_seq` is above
  // its visible sequence, with FailedPrecondition. The visible sequence
  // comes from one ForEachBufferedLocked pass with `visit`; on success
  // `*visible_seq` (when non-null) holds it.
  Status CheckReadFenceLocked(uint64_t min_epoch, uint64_t min_seq, const BufferVisitor& visit,
                              uint64_t* visible_seq) const;

  // The log buffer the primary writes one-sided.
  std::shared_ptr<RegisteredBuffer> rdma_buffer_;
  const uint64_t segment_size_;
  // Highest primary commit sequence absorbed by a log flush (state lock).
  uint64_t flushed_commit_seq_ = 0;
  // Epoch whose primary keying the log map reflects (state lock; guards
  // double re-keying).
  uint64_t log_map_epoch_ = 0;
  // Configuration generation this replica believes it is in. Atomic: every
  // concurrent stream checks it on every message, and readers without the
  // state lock's writer side.
  std::atomic<uint64_t> region_epoch_{0};

  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_ = nullptr;
  FrameCounters frame_;
};

// A replica scan from `start`: merges `overlay` — the records the replica's
// index does not cover yet, one version per key — as the newest source over
// `older` (newest first, each positioned at `start`, outliving the call) and
// returns up to `limit` live pairs. An overlay winner's value is its
// record's; a winner from `older` gets its value from `older_value`.
using MergeValueReader = std::function<StatusOr<std::string>(const MergeEntry& winner)>;
StatusOr<std::vector<KvPair>> ScanOverOverlay(const std::map<std::string, LogRecord>& overlay,
                                              Slice start, size_t limit,
                                              const std::vector<MergeSource*>& older,
                                              const MergeValueReader& older_value);

}  // namespace tebis

#endif  // TEBIS_REPLICATION_BACKUP_REGION_H_
